package wire

import (
	"encoding/binary"

	"timeouts/internal/ipaddr"
)

// UDPHeaderLen is the length of a UDP header.
const UDPHeaderLen = 8

// UDP is a UDP datagram; the scamper-style prober sends UDP probes to
// high-numbered ports and interprets ICMP port-unreachable responses.
type UDP struct {
	SrcPort, DstPort uint16
	Payload          []byte
}

// AppendTo serializes the datagram onto b, computing the checksum over the
// IPv4 pseudo-header for the given addresses.
func (u *UDP) AppendTo(b []byte, src, dst ipaddr.Addr) []byte {
	off := len(b)
	l4len := UDPHeaderLen + len(u.Payload)
	b = append(b, make([]byte, UDPHeaderLen)...)
	b = append(b, u.Payload...)
	p := b[off:]
	// One store per word the checksum reads back (see IPv4.AppendTo).
	binary.BigEndian.PutUint64(p, uint64(u.SrcPort)<<48|uint64(u.DstPort)<<32|uint64(uint16(l4len))<<16)
	ck := ^onesSum(pseudoHeaderSum(src, dst, ProtoUDP, l4len), p)
	if ck == 0 {
		ck = 0xffff // RFC 768: transmitted all-ones when computed zero
	}
	binary.BigEndian.PutUint16(p[6:], ck)
	return b
}

// Unmarshal parses and verifies a UDP datagram addressed src -> dst.
func (u *UDP) Unmarshal(data []byte, src, dst ipaddr.Addr) error {
	if len(data) < UDPHeaderLen {
		return ErrTruncated
	}
	l := int(binary.BigEndian.Uint16(data[4:]))
	if l < UDPHeaderLen || l > len(data) {
		return ErrBadHeader
	}
	if binary.BigEndian.Uint16(data[6:]) != 0 { // checksum present
		if ^onesSum(pseudoHeaderSum(src, dst, ProtoUDP, l), data[:l]) != 0 {
			return ErrBadChecksum
		}
	}
	u.SrcPort = binary.BigEndian.Uint16(data[0:])
	u.DstPort = binary.BigEndian.Uint16(data[2:])
	u.Payload = data[UDPHeaderLen:l]
	return nil
}

// TCP flag bits.
const (
	TCPFlagFIN = 1 << 0
	TCPFlagSYN = 1 << 1
	TCPFlagRST = 1 << 2
	TCPFlagPSH = 1 << 3
	TCPFlagACK = 1 << 4
)

// TCPHeaderLen is the length of an option-less TCP header; probes carry no
// options and no payload.
const TCPHeaderLen = 20

// TCP is a minimal TCP segment sufficient for the study's probes: the
// scamper-style prober sends bare ACKs (the paper avoided SYNs so the probes
// would not look like vulnerability scanning) and hosts or firewalls answer
// with RSTs.
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            byte
	Window           uint16
}

// AppendTo serializes the segment onto b with the pseudo-header checksum.
func (t *TCP) AppendTo(b []byte, src, dst ipaddr.Addr) []byte {
	off := len(b)
	b = append(b, make([]byte, TCPHeaderLen)...)
	p := b[off:]
	// One store per word the checksum reads back (see IPv4.AppendTo).
	binary.BigEndian.PutUint64(p[0:], uint64(t.SrcPort)<<48|uint64(t.DstPort)<<32|uint64(t.Seq))
	binary.BigEndian.PutUint64(p[8:], uint64(t.Ack)<<32|
		5<<28| // data offset: 5 words
		uint64(t.Flags)<<16|uint64(t.Window))
	binary.BigEndian.PutUint16(p[16:], ^onesSum(pseudoHeaderSum(src, dst, ProtoTCP, TCPHeaderLen), p))
	return b
}

// Unmarshal parses and verifies a TCP segment addressed src -> dst.
func (t *TCP) Unmarshal(data []byte, src, dst ipaddr.Addr) error {
	if len(data) < TCPHeaderLen {
		return ErrTruncated
	}
	doff := int(data[12]>>4) * 4
	if doff < TCPHeaderLen || doff > len(data) {
		return ErrBadHeader
	}
	if ^onesSum(pseudoHeaderSum(src, dst, ProtoTCP, len(data)), data) != 0 {
		return ErrBadChecksum
	}
	t.SrcPort = binary.BigEndian.Uint16(data[0:])
	t.DstPort = binary.BigEndian.Uint16(data[2:])
	t.Seq = binary.BigEndian.Uint32(data[4:])
	t.Ack = binary.BigEndian.Uint32(data[8:])
	t.Flags = data[13]
	t.Window = binary.BigEndian.Uint16(data[14:])
	return nil
}

// RST constructs the reset a closed port (or connection-tracking firewall)
// sends in response to an unsolicited ACK: ports swapped, sequence taken
// from the probe's acknowledgment number.
func (t *TCP) RST() *TCP {
	return &TCP{
		SrcPort: t.DstPort,
		DstPort: t.SrcPort,
		Seq:     t.Ack,
		Flags:   TCPFlagRST,
	}
}
