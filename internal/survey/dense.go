package survey

import (
	"fmt"
	"math/bits"
	"sort"
	"time"

	"timeouts/internal/ipaddr"
	"timeouts/internal/simnet"
)

// Outstanding-probe tracking.
//
// The surveyor exploits its rigid probe schedule instead of keeping a
// per-address map: probes are sent in slots (one last octet across every
// block), all probes of a slot share one send time, and an address is
// probed only at its own slot — so re-probing an address force-expires any
// older probe to it. At any instant, therefore, each of the 256 slot
// residues has at most ONE column of possibly-outstanding probes: the one
// created by its latest slot event. The whole outstanding set collapses to
// a small ring of slot columns, each a bitmap over the block list —
// O(ring × blocks/8) bytes, no per-probe allocation, no map.
//
// The ring is indexed by the slot's global rank (cycle*256 + slot) modulo a
// power-of-two size chosen so that a column is provably dead before its
// cell is reused: a column's probes are expired no later than sendAt +
// Timeout + Sweep (the first sweep at which they are over age), and its
// cell is reclaimed ring×slotDur later, so ring×slotDur > Timeout + 2·Sweep
// suffices with a slot to spare. claim panics if this invariant is ever
// violated.
//
// The record order is the one a per-address map sorted at every expiry
// would give — the survey goldens were pinned from exactly such a map —
// because of three orderings:
//
//   - force-expiry in sendSlot visits block indices ascending, which for
//     the sorted block list (Config.prepare) is ascending address order;
//   - sweeps expire whole columns in ascending rank order — ascending
//     sendAt — and bits within a column in ascending block order, which is
//     exactly a (send time, addr) sort, because all entries of one column
//     share a send time and no two columns share one;
//   - the post-run residue is collected and sorted by address.

// outCol is one slot column: the probes of one (cycle, slot) event that are
// still outstanding, as a bitmap over the surveyor's block list.
type outCol struct {
	rank   int64 // cycle*256 + slot; -1 when never used
	sendAt simnet.Time
	live   int // set bits remaining
	bits   []uint64
}

// bit reports whether block index bi is still outstanding.
func (c *outCol) bit(bi int) bool { return c.bits[bi>>6]&(1<<(uint(bi)&63)) != 0 }

// clear resolves block index bi's probe.
func (c *outCol) clear(bi int) {
	c.bits[bi>>6] &^= 1 << (uint(bi) & 63)
	c.live--
}

// drop empties the column in O(words).
func (c *outCol) drop() {
	for i := range c.bits {
		c.bits[i] = 0
	}
	c.live = 0
}

// forEachBit visits the set bits in ascending block order.
func (c *outCol) forEachBit(fn func(bi int)) {
	for w, word := range c.bits {
		for word != 0 {
			fn(w<<6 + bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
}

// outRing is the outstanding set: a power-of-two ring of slot columns
// indexed by rank.
type outRing struct {
	cols     []outCol
	mask     int64
	lastRank int64 // rank of the most recently claimed column (-1: none)
	minRank  int64 // no live column has a rank below this
}

// maxRing bounds the ring so a pathological configuration (timeout
// enormously larger than the probing interval) fails fast instead of
// allocating without limit.
const maxRing = 1 << 20

// ringSize returns the ring size for a config, or an error naming the
// smallest interval the config's timeout allows. The config must have
// defaults applied.
func ringSize(cfg Config) (int, error) {
	slotDur := cfg.Interval / 256
	if slotDur <= 0 {
		return 0, fmt.Errorf("survey: interval %v is below 256ns, so its 256 probing slots have zero duration", cfg.Interval)
	}
	span := int64((cfg.Timeout+2*cfg.Sweep)/slotDur) + 2
	size := int64(1)
	for size < span {
		size <<= 1
	}
	if size > maxRing {
		return 0, fmt.Errorf("survey: interval %v is too short for timeout %v: Timeout+2·Sweep spans %d probing slots, above the outstanding-probe ring's %d; the smallest interval this timeout allows is %v",
			cfg.Interval, cfg.Timeout, span, maxRing, minInterval(cfg.Timeout, cfg.Sweep))
	}
	return int(size), nil
}

// minInterval returns the smallest probing interval whose ring fits
// maxRing for the given timeout and sweep: span ≤ maxRing needs
// (Timeout+2·Sweep)/slotDur ≤ maxRing-2, i.e. slotDur > (Timeout+2·Sweep) /
// (maxRing-1), and the interval is 256 slot durations.
func minInterval(timeout, sweep time.Duration) time.Duration {
	return 256 * ((timeout+2*sweep)/(maxRing-1) + 1)
}

// newOutRing builds the ring for a prepared config over nblocks blocks.
func newOutRing(cfg Config, nblocks int) *outRing {
	size, err := ringSize(cfg)
	if err != nil {
		panic(err) // Config.prepare validated it
	}
	words := (nblocks + 63) / 64
	g := &outRing{cols: make([]outCol, size), mask: int64(size - 1), lastRank: -1}
	for i := range g.cols {
		g.cols[i] = outCol{rank: -1, bits: make([]uint64, words)}
	}
	return g
}

// col returns the ring cell that rank maps to (which may hold another rank).
func (g *outRing) col(rank int64) *outCol { return &g.cols[rank&g.mask] }

// claim takes rank's cell for a new column with every block outstanding.
func (g *outRing) claim(rank int64, sendAt simnet.Time, nblocks int) *outCol {
	c := g.col(rank)
	if c.live > 0 {
		panic("survey: outstanding ring column reused while live")
	}
	c.rank = rank
	c.sendAt = sendAt
	c.live = nblocks
	for i := range c.bits {
		c.bits[i] = ^uint64(0)
	}
	if tail := uint(nblocks) & 63; tail != 0 {
		c.bits[len(c.bits)-1] = 1<<tail - 1
	}
	g.lastRank = rank
	return c
}

// blockIndex locates the block containing a in the surveyor's slice, or -1.
func (s *surveyor) blockIndex(a ipaddr.Addr) int {
	p := a.Prefix()
	blocks := s.cfg.Blocks
	i := sort.Search(len(blocks), func(i int) bool { return blocks[i] >= p })
	if i < len(blocks) && blocks[i] == p {
		return i
	}
	return -1
}

// lookup returns the column and block index holding a's outstanding
// probe, or nil. Because each slot event clears any older probes to the
// addresses it re-probes, only the LATEST column of a's slot residue can
// hold it — a single cell probe, no walk.
func (s *surveyor) lookup(a ipaddr.Addr) (*outCol, int) {
	g := s.ring
	if g.lastRank < 0 {
		return nil, 0
	}
	bi := s.blockIndex(a)
	if bi < 0 {
		return nil, 0
	}
	r := g.lastRank - (g.lastRank-int64(SlotOfOctet(byte(a))))&255
	if r < 0 {
		return nil, 0
	}
	if c := g.col(r); c.rank == r && c.live > 0 && c.bit(bi) {
		return c, bi
	}
	return nil, 0
}

// forceExpirePrior expires whatever remains of this slot's previous column
// before rank's probes go out, in ascending block order. Possible only when
// probes outlive the interval.
func (s *surveyor) forceExpirePrior(rank int64, oct byte) {
	prior := rank - 256
	if prior < 0 {
		return
	}
	c := s.ring.col(prior)
	if c.rank != prior || c.live == 0 {
		return
	}
	now := s.sched.Now()
	c.forEachBit(func(bi int) {
		dst := s.cfg.Blocks[bi].Addr(oct)
		s.record(Record{Type: RecTimeout, Addr: dst, When: TruncSecond(c.sendAt)},
			simnet.ShardKey{At: now, Phase: phaseSlot, A: uint64(rank), B: uint64(s.blockOff + bi)})
		s.stats.Timeouts++
		s.o.timeouts.Inc()
	})
	c.drop()
}

// sweepPhase expires every column older than the timeout, whole columns at
// a time in ascending send-time order, keying the records at the given
// phase and merge time.
func (s *surveyor) sweepPhase(phase uint8, keyAt simnet.Time) {
	now := s.sched.Now()
	g := s.ring
	for r := g.minRank; r <= g.lastRank; r++ {
		c := g.col(r)
		if c.rank != r || c.live == 0 {
			if r == g.minRank {
				g.minRank++
			}
			continue
		}
		if now-c.sendAt < s.cfg.Timeout {
			// Columns are claimed in send order; everything above is younger.
			break
		}
		s.expireColumn(c, phase, keyAt)
		if r == g.minRank {
			g.minRank++
		}
	}
}

// expireColumn emits a timeout record for every outstanding probe of the
// column, in ascending block (= address) order, and empties it.
func (s *surveyor) expireColumn(c *outCol, phase uint8, keyAt simnet.Time) {
	oct := octOfSlot(int(c.rank & 255))
	c.forEachBit(func(bi int) {
		a := s.cfg.Blocks[bi].Addr(oct)
		s.record(Record{Type: RecTimeout, Addr: a, When: TruncSecond(c.sendAt)},
			simnet.ShardKey{At: keyAt, Phase: phase, A: uint64(c.sendAt), B: uint64(a)})
		s.stats.Timeouts++
		s.o.timeouts.Inc()
	})
	c.drop()
}

// expireRest times out the post-run residue younger than the timeout,
// sorted by address.
func (s *surveyor) expireRest() {
	g := s.ring
	type rest struct {
		addr ipaddr.Addr
		send simnet.Time
	}
	var left []rest
	for r := g.minRank; r <= g.lastRank; r++ {
		c := g.col(r)
		if c.rank != r || c.live == 0 {
			continue
		}
		oct := octOfSlot(int(r & 255))
		c.forEachBit(func(bi int) {
			left = append(left, rest{addr: s.cfg.Blocks[bi].Addr(oct), send: c.sendAt})
		})
		c.drop()
	}
	sort.Slice(left, func(i, j int) bool { return left[i].addr < left[j].addr })
	for _, e := range left {
		s.record(Record{Type: RecTimeout, Addr: e.addr, When: TruncSecond(e.send)},
			simnet.ShardKey{At: endKeyTime, Phase: phaseRest, A: uint64(e.addr)})
		s.stats.Timeouts++
		s.o.timeouts.Inc()
	}
}

// octOfSlot inverts SlotOfOctet.
func octOfSlot(slot int) byte { return byte(slot%128)<<1 | byte(slot/128) }
