// Package wire implements the wire formats the study's measurement tools
// exchange: IPv4 headers and the ICMP echo, ICMP error, UDP and TCP probe
// packets built on top of them. Layers follow the decode/serialize style of
// layered packet libraries: each layer is a plain struct with
// Unmarshal([]byte) and AppendTo([]byte) methods, checksums are computed on
// serialize and verified on decode, and a top-level Decode produces the
// layer stack of a packet.
//
// The package also implements the Zmap probe payload (dst address + send
// timestamp embedded in the ICMP echo body) that the paper's authors
// contributed to Zmap's module_icmp_echo_time, which makes a stateless
// scanner able to compute RTTs and detect broadcast responders.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"timeouts/internal/ipaddr"
)

// IP protocol numbers used by the probers.
const (
	ProtoICMP = 1
	ProtoTCP  = 6
	ProtoUDP  = 17
)

// IPv4HeaderLen is the length of the fixed IPv4 header; the probers never
// send options.
const IPv4HeaderLen = 20

// Errors returned by decoders.
var (
	ErrTruncated   = errors.New("wire: truncated packet")
	ErrBadChecksum = errors.New("wire: bad checksum")
	ErrBadVersion  = errors.New("wire: not an IPv4 packet")
	ErrBadHeader   = errors.New("wire: malformed header")
)

// IPv4 is the fixed part of an IPv4 header. Fragmentation fields are carried
// but the simulator never fragments (probe packets are tiny).
type IPv4 struct {
	TOS      byte
	TotalLen uint16
	ID       uint16
	Flags    byte   // 3 bits: reserved, DF, MF
	FragOff  uint16 // 13 bits
	TTL      byte
	Protocol byte
	Src, Dst ipaddr.Addr
}

// AppendTo serializes the header (with checksum) onto b and returns the
// extended slice. TotalLen must already be set to header + payload length.
func (h *IPv4) AppendTo(b []byte) []byte {
	off := len(b)
	b = append(b, make([]byte, IPv4HeaderLen)...)
	p := b[off:]
	// Whole-word stores: Checksum reads the header back 8 bytes at a time,
	// and a load spanning several narrower stores waits for them to retire
	// instead of being forwarded from them.
	binary.BigEndian.PutUint64(p[0:], 0x45<<56| // version 4, IHL 5
		uint64(h.TOS)<<48|uint64(h.TotalLen)<<32|uint64(h.ID)<<16|
		uint64(uint16(h.Flags)<<13|h.FragOff&0x1fff))
	binary.BigEndian.PutUint64(p[8:], uint64(h.TTL)<<56|uint64(h.Protocol)<<48|uint64(h.Src))
	binary.BigEndian.PutUint32(p[16:], uint32(h.Dst))
	binary.BigEndian.PutUint16(p[10:], Checksum(p))
	return b
}

// Unmarshal parses and checksum-verifies an IPv4 header from data, returning
// the payload that follows it.
func (h *IPv4) Unmarshal(data []byte) (payload []byte, err error) {
	if len(data) < IPv4HeaderLen {
		return nil, ErrTruncated
	}
	if data[0]>>4 != 4 {
		return nil, ErrBadVersion
	}
	ihl := int(data[0]&0x0f) * 4
	if ihl < IPv4HeaderLen || len(data) < ihl {
		return nil, ErrBadHeader
	}
	if Checksum(data[:ihl]) != 0 {
		return nil, ErrBadChecksum
	}
	h.TOS = data[1]
	h.TotalLen = binary.BigEndian.Uint16(data[2:])
	h.ID = binary.BigEndian.Uint16(data[4:])
	ff := binary.BigEndian.Uint16(data[6:])
	h.Flags = byte(ff >> 13)
	h.FragOff = ff & 0x1fff
	h.TTL = data[8]
	h.Protocol = data[9]
	h.Src = ipaddr.FromBytes4([4]byte(data[12:16]))
	h.Dst = ipaddr.FromBytes4([4]byte(data[16:20]))
	if int(h.TotalLen) < ihl {
		return nil, ErrBadHeader
	}
	end := int(h.TotalLen)
	if end > len(data) {
		return nil, ErrTruncated
	}
	return data[ihl:end], nil
}

// String renders a compact one-line summary, e.g. for logs.
func (h *IPv4) String() string {
	return fmt.Sprintf("IPv4 %s > %s proto=%d ttl=%d len=%d",
		h.Src, h.Dst, h.Protocol, h.TTL, h.TotalLen)
}

// pseudoHeaderSum computes the checksum contribution of the IPv4
// pseudo-header used by UDP and TCP. An address adds as one 32-bit word,
// which is congruent to its two 16-bit halves (see onesSum).
func pseudoHeaderSum(src, dst ipaddr.Addr, proto byte, l4len int) uint64 {
	return uint64(src) + uint64(dst) + uint64(proto) + uint64(l4len)
}
