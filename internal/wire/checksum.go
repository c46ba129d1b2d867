package wire

import (
	"encoding/binary"
	"math/bits"
)

// Checksum computes the RFC 1071 Internet checksum over data: the one's
// complement of the one's complement sum of the data taken as 16-bit
// big-endian words, with an odd trailing byte padded with zero.
func Checksum(data []byte) uint16 {
	return ^onesSum(0, data)
}

// onesSum returns the 16-bit one's complement sum of acc and data, with data
// taken as Checksum takes it. It reads 8 bytes per step, as RFC 1071 §2
// allows: the sum may be formed in wider words with end-around carry and
// folded at the end, because 2^16 ≡ 1 modulo 2^16−1, so a big-endian 64-bit
// word adds the same as its four 16-bit halves. A word's carry out is added
// back by the next add's carry in, and the last one after the loop.
func onesSum(acc uint64, data []byte) uint16 {
	var c uint64
	for len(data) >= 8 {
		acc, c = bits.Add64(acc, binary.BigEndian.Uint64(data), c)
		data = data[8:]
	}
	if len(data) >= 4 {
		acc, c = bits.Add64(acc, uint64(binary.BigEndian.Uint32(data)), c)
		data = data[4:]
	}
	if len(data) >= 2 {
		acc, c = bits.Add64(acc, uint64(binary.BigEndian.Uint16(data)), c)
		data = data[2:]
	}
	if len(data) == 1 {
		acc, c = bits.Add64(acc, uint64(data[0])<<8, c)
	}
	// A carry out of this add leaves acc = 0, so adding it back cannot
	// carry again.
	acc, c = bits.Add64(acc, 0, c)
	acc += c
	// Fold to 16 bits, adding each high half back onto the low one; two
	// steps per width always leave the carry absorbed.
	acc = acc&0xffffffff + acc>>32
	acc = acc&0xffffffff + acc>>32
	acc = acc&0xffff + acc>>16
	acc = acc&0xffff + acc>>16
	return uint16(acc)
}

// VerifyChecksum reports whether data carries a valid RFC 1071 checksum,
// i.e. summing the data including the checksum field yields 0xffff before
// complementing.
func VerifyChecksum(data []byte) bool {
	return Checksum(data) == 0
}
