package core

import (
	"math/bits"
	"slices"

	"timeouts/internal/ipaddr"
)

// Blocks keeps one T per IPv4 address, laid out densely per /24: each
// prefix that holds any state owns a block of 256 cells and a 256-bit mask
// of the cells in use. Surveys probe whole /24s, so a block is usually full
// and the layout needs no population index and no spill map: any address,
// in the population or stray, finds its cell in one prefix lookup. The
// price is the sparse case — a /24 with a single live address still costs
// a whole block.
//
// The zero value is empty and ready to use. Cell pointers stay valid for
// the life of the Blocks.
type Blocks[T any] struct {
	blocks map[ipaddr.Prefix24]*block[T]
	n      int
}

type block[T any] struct {
	live  [4]uint64
	cells [256]T
}

// Get returns a's cell, bringing it to life (as T's zero value) if needed;
// created reports whether it did.
func (b *Blocks[T]) Get(a ipaddr.Addr) (cell *T, created bool) {
	blk := b.blocks[a.Prefix()]
	if blk == nil {
		if b.blocks == nil {
			b.blocks = make(map[ipaddr.Prefix24]*block[T])
		}
		blk = new(block[T])
		b.blocks[a.Prefix()] = blk
	}
	o := a.LastOctet()
	word, bit := &blk.live[o>>6], uint64(1)<<(o&63)
	if *word&bit == 0 {
		*word |= bit
		b.n++
		created = true
	}
	return &blk.cells[o], created
}

// Lookup returns a's cell, or nil if it was never brought to life.
func (b *Blocks[T]) Lookup(a ipaddr.Addr) *T {
	blk := b.blocks[a.Prefix()]
	if blk == nil {
		return nil
	}
	o := a.LastOctet()
	if blk.live[o>>6]&(1<<(o&63)) == 0 {
		return nil
	}
	return &blk.cells[o]
}

// Len returns how many cells are live.
func (b *Blocks[T]) Len() int { return b.n }

// Range calls fn on every live cell in ascending address order.
func (b *Blocks[T]) Range(fn func(a ipaddr.Addr, cell *T)) {
	prefixes := make([]ipaddr.Prefix24, 0, len(b.blocks))
	for p := range b.blocks {
		prefixes = append(prefixes, p)
	}
	slices.Sort(prefixes)
	for _, p := range prefixes {
		blk := b.blocks[p]
		for w, word := range blk.live {
			for ; word != 0; word &= word - 1 {
				o := w<<6 | bits.TrailingZeros64(word)
				fn(p.Addr(byte(o)), &blk.cells[o])
			}
		}
	}
}
