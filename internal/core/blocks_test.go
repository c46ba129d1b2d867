package core

import (
	"math/rand/v2"
	"slices"
	"testing"

	"timeouts/internal/ipaddr"
)

// TestBlocksMatchesMapOracle drives Blocks with seeded random Get and Lookup
// sequences over three adjacent /24s plus strays at prefix 0, prefix
// 0xffffff and one far prefix, and checks every operation against a map of
// cell pointers: created, Lookup (nil for any address never brought to
// life), Len, and pointer identity. Each cell stores a sentinel naming its
// address (never zero, so 0.0.0.0 is covered too), and every cell is
// re-read each time the cells cross a chunk boundary, so a cell that moved
// or aliased another shows. The sequences create more than three chunks'
// worth of cells. At the end, Range must visit exactly the oracle's
// addresses, ascending, each with its own cell.
func TestBlocksMatchesMapOracle(t *testing.T) {
	var space []ipaddr.Addr
	for p := ipaddr.Prefix24(0x0a0b0c); p < 0x0a0b0f; p++ {
		for o := 0; o < 256; o++ {
			space = append(space, p.Addr(byte(o)))
		}
	}
	for _, p := range []ipaddr.Prefix24{0, 0xffffff, 0x5f0003} {
		for _, o := range []byte{0, 1, 128, 255} {
			space = append(space, p.Addr(o))
		}
	}
	sentinel := func(a ipaddr.Addr) uint64 { return uint64(a) + 1 }
	for _, seed := range []uint64{1, 2, 3} {
		rng := rand.New(rand.NewPCG(seed, 0x626c6f636b73))
		var b Blocks[uint64]
		oracle := make(map[ipaddr.Addr]*uint64)
		reread := func(when string) {
			t.Helper()
			for a, want := range oracle {
				if got := b.Lookup(a); got != want {
					t.Fatalf("seed %d, %s: Lookup(%s) = %p, want %p", seed, when, a, got, want)
				} else if *got != sentinel(a) {
					t.Fatalf("seed %d, %s: %s's cell holds %#x", seed, when, a, *got)
				}
			}
		}
		for op := 0; op < 20000; op++ {
			a := space[rng.IntN(len(space))]
			want := oracle[a]
			if rng.IntN(5) < 3 {
				cell, created := b.Get(a)
				if created != (want == nil) {
					t.Fatalf("seed %d op %d: Get(%s) created=%v, oracle has %p", seed, op, a, created, want)
				}
				if created {
					if *cell != 0 {
						t.Fatalf("seed %d op %d: new cell for %s holds %#x", seed, op, a, *cell)
					}
					*cell = sentinel(a)
					oracle[a] = cell
					if b.Len()%chunkCells == 1 {
						reread("after a chunk boundary")
					}
				} else if cell != want {
					t.Fatalf("seed %d op %d: Get(%s) = %p, first returned %p", seed, op, a, cell, want)
				}
			} else if got := b.Lookup(a); got != want {
				t.Fatalf("seed %d op %d: Lookup(%s) = %p, want %p", seed, op, a, got, want)
			}
			if b.Len() != len(oracle) {
				t.Fatalf("seed %d op %d: Len = %d, oracle has %d", seed, op, b.Len(), len(oracle))
			}
		}
		if len(oracle) <= 3*chunkCells {
			t.Fatalf("seed %d: only %d cells, fewer than three chunk boundaries", seed, len(oracle))
		}
		reread("at the end")
		// Never created: outside every live prefix, and dead octets inside
		// live ones.
		for _, a := range []ipaddr.Addr{
			ipaddr.Prefix24(0x0a0b0b).Addr(255), ipaddr.Prefix24(0x0a0b0f).Addr(0),
			ipaddr.Prefix24(0).Addr(2), ipaddr.Prefix24(0xffffff).Addr(254), ipaddr.Prefix24(0x5f0003).Addr(127),
		} {
			if got := b.Lookup(a); got != nil {
				t.Fatalf("seed %d: Lookup(%s) = %p for an address never brought to life", seed, a, got)
			}
		}

		want := make([]ipaddr.Addr, 0, len(oracle))
		for a := range oracle {
			want = append(want, a)
		}
		slices.Sort(want)
		var got []ipaddr.Addr
		b.Range(func(a ipaddr.Addr, cell *uint64) {
			if cell != oracle[a] || *cell != sentinel(a) {
				t.Fatalf("seed %d: Range passed %s the cell %p holding %#x, want %p", seed, a, cell, *cell, oracle[a])
			}
			got = append(got, a)
		})
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: Range visited %d addresses, want the oracle's %d in ascending order", seed, len(got), len(want))
		}
	}
}
