package core

import (
	"math/bits"
	"slices"

	"timeouts/internal/ipaddr"
)

// Blocks keeps one T per IPv4 address. Cells live in fixed-size chunks,
// appended in the order addresses are first brought to life; each /24 that
// holds any state owns an index entry — a 256-bit mask of its live cells and
// the cell number of each — so any address, in the population or stray,
// finds its cell in one prefix lookup and one index load.
//
// Storage follows the visiting order, not the address order, because the
// users revisit addresses in a fixed order: a survey (§3.1) probes one last
// octet in every /24 per slot, so records arrive octet-major, and from the
// second round on the matcher and the advisor's ingest walk their cells
// sequentially instead of striding across /24s. A sparse /24 costs its
// index entry (~1 KB) plus its live cells.
//
// The zero value is empty and ready to use. Cell pointers stay valid for
// the life of the Blocks.
type Blocks[T any] struct {
	index  map[ipaddr.Prefix24]*blockIndex
	chunks []*[chunkCells]T
	n      int
}

// chunkCells is how many cells one chunk holds: as many as a /24 has, so a
// chunk is never larger than a dense per-/24 block would be.
const chunkCells = 256

// blockIndex is one /24's entry: which last octets are live, and the cell
// number of each live one.
type blockIndex struct {
	live [4]uint64
	cell [256]uint32
}

// at returns cell number i.
func (b *Blocks[T]) at(i uint32) *T { return &b.chunks[i/chunkCells][i%chunkCells] }

// Get returns a's cell, bringing it to life (as T's zero value) if needed;
// created reports whether it did.
func (b *Blocks[T]) Get(a ipaddr.Addr) (cell *T, created bool) {
	idx := b.index[a.Prefix()]
	if idx == nil {
		if b.index == nil {
			b.index = make(map[ipaddr.Prefix24]*blockIndex)
		}
		idx = new(blockIndex)
		b.index[a.Prefix()] = idx
	}
	o := a.LastOctet()
	word, bit := &idx.live[o>>6], uint64(1)<<(o&63)
	if *word&bit == 0 {
		*word |= bit
		if b.n == len(b.chunks)*chunkCells {
			b.chunks = append(b.chunks, new([chunkCells]T))
		}
		idx.cell[o] = uint32(b.n)
		b.n++
		created = true
	}
	return b.at(idx.cell[o]), created
}

// Lookup returns a's cell, or nil if it was never brought to life.
func (b *Blocks[T]) Lookup(a ipaddr.Addr) *T {
	idx := b.index[a.Prefix()]
	if idx == nil {
		return nil
	}
	o := a.LastOctet()
	if idx.live[o>>6]&(1<<(o&63)) == 0 {
		return nil
	}
	return b.at(idx.cell[o])
}

// Len returns how many cells are live.
func (b *Blocks[T]) Len() int { return b.n }

// Range calls fn on every live cell in ascending address order.
func (b *Blocks[T]) Range(fn func(a ipaddr.Addr, cell *T)) {
	prefixes := make([]ipaddr.Prefix24, 0, len(b.index))
	for p := range b.index {
		prefixes = append(prefixes, p)
	}
	slices.Sort(prefixes)
	for _, p := range prefixes {
		idx := b.index[p]
		for w, word := range idx.live {
			for ; word != 0; word &= word - 1 {
				o := w<<6 | bits.TrailingZeros64(word)
				fn(p.Addr(byte(o)), b.at(idx.cell[o]))
			}
		}
	}
}
