package wire

import (
	"encoding/binary"
	"fmt"

	"timeouts/internal/ipaddr"
)

// ICMP message types used by the study.
const (
	ICMPTypeEchoReply      = 0
	ICMPTypeDstUnreachable = 3
	ICMPTypeEchoRequest    = 8
	ICMPTypeTimeExceeded   = 11
)

// ICMP destination-unreachable codes the model emits.
const (
	ICMPCodeNetUnreachable  = 0
	ICMPCodeHostUnreachable = 1
	ICMPCodePortUnreachable = 3
)

// ICMPEchoHeaderLen is the length of the echo request/reply header before
// the payload.
const ICMPEchoHeaderLen = 8

// ICMPEcho is an ICMP echo request or reply.
type ICMPEcho struct {
	Type    byte // ICMPTypeEchoRequest or ICMPTypeEchoReply
	Code    byte
	ID      uint16
	Seq     uint16
	Payload []byte
}

// AppendTo serializes the message with its checksum onto b.
func (m *ICMPEcho) AppendTo(b []byte) []byte {
	off := len(b)
	b = append(b, make([]byte, ICMPEchoHeaderLen)...)
	b = append(b, m.Payload...)
	p := b[off:]
	// One store for the header, which Checksum reads back as one word (see
	// IPv4.AppendTo).
	binary.BigEndian.PutUint64(p, uint64(m.Type)<<56|uint64(m.Code)<<48|uint64(m.ID)<<16|uint64(m.Seq))
	binary.BigEndian.PutUint16(p[2:], Checksum(p))
	return b
}

// Unmarshal parses and verifies an echo message from an ICMP payload.
func (m *ICMPEcho) Unmarshal(data []byte) error {
	if len(data) < ICMPEchoHeaderLen {
		return ErrTruncated
	}
	if Checksum(data) != 0 {
		return ErrBadChecksum
	}
	m.Type = data[0]
	m.Code = data[1]
	if m.Type != ICMPTypeEchoRequest && m.Type != ICMPTypeEchoReply {
		return fmt.Errorf("wire: ICMP type %d is not an echo message", m.Type)
	}
	m.ID = binary.BigEndian.Uint16(data[4:])
	m.Seq = binary.BigEndian.Uint16(data[6:])
	m.Payload = data[ICMPEchoHeaderLen:]
	return nil
}

// Reply constructs the echo reply to a request, echoing ID, Seq and payload
// as RFC 792 requires.
func (m *ICMPEcho) Reply() *ICMPEcho {
	r := new(ICMPEcho)
	m.ReplyInto(r)
	return r
}

// ReplyInto fills out with the echo reply to m — the allocation-free form of
// Reply for responders that reuse a scratch message. The payload is shared,
// not copied.
func (m *ICMPEcho) ReplyInto(out *ICMPEcho) {
	*out = ICMPEcho{Type: ICMPTypeEchoReply, ID: m.ID, Seq: m.Seq, Payload: m.Payload}
}

// ICMPError is an ICMP error message (destination unreachable, time
// exceeded) quoting the offending packet's IPv4 header plus at least the
// first 8 bytes of its payload.
type ICMPError struct {
	Type     byte
	Code     byte
	Original []byte // quoted IPv4 header + leading payload bytes
}

// AppendTo serializes the error message with its checksum onto b.
func (m *ICMPError) AppendTo(b []byte) []byte {
	off := len(b)
	b = append(b, make([]byte, 8)...)
	b = append(b, m.Original...)
	p := b[off:]
	binary.BigEndian.PutUint64(p, uint64(m.Type)<<56|uint64(m.Code)<<48)
	binary.BigEndian.PutUint16(p[2:], Checksum(p))
	return b
}

// Unmarshal parses and verifies an ICMP error message.
func (m *ICMPError) Unmarshal(data []byte) error {
	if len(data) < 8 {
		return ErrTruncated
	}
	if Checksum(data) != 0 {
		return ErrBadChecksum
	}
	m.Type = data[0]
	m.Code = data[1]
	switch m.Type {
	case ICMPTypeDstUnreachable, ICMPTypeTimeExceeded:
	default:
		return fmt.Errorf("wire: ICMP type %d is not an error message", m.Type)
	}
	m.Original = data[8:]
	return nil
}

// Quoted parses the quoted original packet: its IPv4 header and the leading
// layer-4 bytes (at least 8 per RFC 792). Probers use the L4 bytes to match
// an error to the probe that triggered it (e.g. the UDP source port).
func (m *ICMPError) Quoted() (IPv4, []byte, error) {
	b := m.Original
	if len(b) < IPv4HeaderLen || b[0]>>4 != 4 || Checksum(b[:IPv4HeaderLen]) != 0 {
		return IPv4{}, nil, ErrBadHeader
	}
	// The quoted body may be truncated relative to TotalLen, which full
	// Unmarshal would reject; parse the header fields directly.
	h := IPv4{
		TOS:      b[1],
		TotalLen: uint16(b[2])<<8 | uint16(b[3]),
		ID:       uint16(b[4])<<8 | uint16(b[5]),
		Flags:    b[6] >> 5,
		FragOff:  (uint16(b[6])<<8 | uint16(b[7])) & 0x1fff,
		TTL:      b[8],
		Protocol: b[9],
		Src:      ipaddr.FromBytes4([4]byte(b[12:16])),
		Dst:      ipaddr.FromBytes4([4]byte(b[16:20])),
	}
	return h, b[IPv4HeaderLen:], nil
}

// QuotedDst extracts the destination address of the quoted original packet,
// which is how a prober attributes an ICMP error to an outstanding probe.
func (m *ICMPError) QuotedDst() (ipaddr.Addr, error) {
	var h IPv4
	if _, err := h.Unmarshal(m.Original); err != nil {
		// The quote may be shorter than the original TotalLen; tolerate a
		// truncated body as long as the header itself is intact.
		if len(m.Original) >= IPv4HeaderLen && Checksum(m.Original[:IPv4HeaderLen]) == 0 {
			return ipaddr.FromBytes4([4]byte(m.Original[16:20])), nil
		}
		return 0, err
	}
	return h.Dst, nil
}
