package wire

import (
	"testing"
	"testing/quick"

	"timeouts/internal/ipaddr"
)

// Robustness: Decode must never panic, whatever bytes arrive. A prober's
// receive path parses everything the fabric delivers, and the fabric of the
// real Internet delivers garbage.
func TestDecodeNeverPanics(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Decode panicked on %x: %v", data, r)
			}
		}()
		_, _ = Decode(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// Mutated valid packets must either decode cleanly or fail with an error —
// never panic, and never decode with a wrong checksum.
func TestDecodeMutatedPackets(t *testing.T) {
	src, dst := ipaddr.MustParse("240.0.0.1"), ipaddr.MustParse("1.2.3.4")
	base := [][]byte{
		EncodeEcho(src, dst, &ICMPEcho{Type: ICMPTypeEchoRequest, ID: 7, Seq: 9, Payload: []byte("x")}),
		EncodeUDP(src, dst, &UDP{SrcPort: 1, DstPort: 33435, Payload: []byte{1, 2}}),
		EncodeTCP(src, dst, &TCP{SrcPort: 1, DstPort: 80, Flags: TCPFlagACK}),
	}
	for _, pkt := range base {
		for i := 0; i < len(pkt); i++ {
			for _, bit := range []byte{0x01, 0x80} {
				mut := append([]byte(nil), pkt...)
				mut[i] ^= bit
				p, err := Decode(mut)
				if err != nil {
					continue
				}
				// A successful decode of a mutated packet can only happen
				// if the flip canceled out in a field not covered by any
				// checksum — there is no such field in these packets except
				// within the L4 payload bytes of... nothing: everything is
				// covered. So any success must re-verify.
				whole := p.IP
				_ = whole
				t.Errorf("mutation at byte %d (bit %02x) decoded successfully", i, bit)
			}
		}
	}
}

// Truncations at every length must fail without panicking.
func TestDecodeAllTruncations(t *testing.T) {
	src, dst := ipaddr.MustParse("240.0.0.1"), ipaddr.MustParse("1.2.3.4")
	pkt := EncodeEcho(src, dst, &ICMPEcho{Type: ICMPTypeEchoRequest, ID: 7, Seq: 9, Payload: []byte("payload")})
	for n := 0; n < len(pkt); n++ {
		if _, err := Decode(pkt[:n]); err == nil {
			t.Errorf("truncation to %d bytes decoded", n)
		}
	}
}

// refChecksum16 is the 16-bit-word RFC 1071 loop the 8-byte kernel
// replaced: the reference FuzzChecksum holds Checksum to.
func refChecksum16(base uint32, data []byte) uint16 {
	sum := base
	n := len(data)
	for i := 0; i+1 < n; i += 2 {
		sum += uint32(data[i])<<8 | uint32(data[i+1])
	}
	if n%2 == 1 {
		sum += uint32(data[n-1]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return ^uint16(sum)
}

// refPseudoHeader16 sums the UDP/TCP pseudo-header as 16-bit words.
func refPseudoHeader16(src, dst ipaddr.Addr, proto byte, l4len int) uint32 {
	s, d := src.Bytes4(), dst.Bytes4()
	var sum uint32
	sum += uint32(s[0])<<8 | uint32(s[1])
	sum += uint32(s[2])<<8 | uint32(s[3])
	sum += uint32(d[0])<<8 | uint32(d[1])
	sum += uint32(d[2])<<8 | uint32(d[3])
	sum += uint32(proto)
	sum += uint32(l4len)
	return sum
}

// FuzzChecksum holds the 8-byte checksum kernel to the 16-bit loop on
// arbitrary bytes, odd lengths included, alone (IPv4 and ICMP) and after a
// UDP/TCP pseudo-header.
func FuzzChecksum(f *testing.F) {
	ff := make([]byte, 36)
	for i := range ff {
		ff[i] = 0xff
	}
	for _, seed := range [][]byte{
		make([]byte, 36), ff, ff[:20],
		{0xab}, {1, 2, 3, 4, 5, 6, 7},
		EncodeEcho(ipaddr.MustParse("240.0.0.1"), ipaddr.MustParse("1.2.3.4"), &ICMPEcho{Type: ICMPTypeEchoRequest, ID: 7, Seq: 9})[:20],
		EncodeEcho(ipaddr.MustParse("240.0.0.1"), ipaddr.MustParse("1.2.3.4"), &ICMPEcho{Type: ICMPTypeEchoRequest, ID: 7, Seq: 9, Payload: make([]byte, 8)}),
	} {
		f.Add(seed, uint32(0xf0000001), uint32(0x01020304), byte(ProtoUDP))
	}
	f.Fuzz(func(t *testing.T, data []byte, src, dst uint32, proto byte) {
		if got, want := Checksum(data), refChecksum16(0, data); got != want {
			t.Fatalf("Checksum(%x) = %04x, 16-bit loop %04x", data, got, want)
		}
		s, d := ipaddr.Addr(src), ipaddr.Addr(dst)
		got := ^onesSum(pseudoHeaderSum(s, d, proto, len(data)), data)
		if want := refChecksum16(refPseudoHeader16(s, d, proto, len(data)), data); got != want {
			t.Fatalf("pseudo-header checksum of %x (%s > %s, proto %d) = %04x, 16-bit loop %04x", data, s, d, proto, got, want)
		}
	})
}
