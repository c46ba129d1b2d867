package simnet

import "math/bits"

// Hierarchical timing wheel (Varghese & Lauck), the scheduler's engine.
// Six levels of 256 slots each cover the whole non-negative int64
// nanosecond range: a level-l slot spans 2^(16+8l) ns, so level 0 buckets
// ~65.5 µs of sim time and level 5 slots span ~833 days. Inserting hashes
// the event time to a (level, slot) pair; dequeuing scans per-level
// occupancy bitmaps for the next set slot, so advancing across long empty
// stretches costs O(levels), not O(slots).
//
// Determinism is preserved exactly — the same dequeue order as a binary
// heap over (at, seq) — by construction:
//
//   - An event is inserted at the smallest level at which its time shares a
//     parent slot with the wheel cursor ("window-relative" indexing). Lower
//     level windows are therefore subsets of the current higher-level slot,
//     so the earliest pending event is always found by scanning levels
//     bottom-up from their cursors, and no slot index ever laps the cursor.
//   - When the cursor enters a higher-level slot, that slot's events
//     cascade down; they re-insert at strictly lower levels.
//   - When a level-0 slot expires, its FIFO list is insertion-sorted by
//     (at, seq) into the scheduler's curList. Sorting the slot restores the
//     exact global order regardless of how the slot's list was built, and
//     the FIFO list makes the common in-time-order case an O(1) append.
//   - Events scheduled into the already-expired current window (At(now)
//     from inside a running event, past-time clamps) bypass the wheel and
//     sort into curList after the dequeue cursor — see Scheduler.schedule.
type wheel struct {
	// cur is the start of the most recently expired level-0 slot: the
	// cursor every insert is indexed relative to. Monotonically
	// nondecreasing; cur <= now at all times.
	cur uint64
	// Levels are allocated on first use: a slot array is ~4 KB, and short
	// workloads only ever touch the bottom two or three levels, so lazy
	// allocation keeps per-scheduler construction cost proportional to the
	// workload's time horizon.
	levels [wheelLevels]*wheelLevel
}

// level returns the l-th ring, allocating it on first use.
func (w *wheel) level(l int) *wheelLevel {
	lv := w.levels[l]
	if lv == nil {
		lv = new(wheelLevel)
		w.levels[l] = lv
	}
	return lv
}

const (
	wheelLevels    = 6
	wheelSlotBits  = 8
	wheelSlots     = 1 << wheelSlotBits
	wheelBaseShift = 16 // level-0 slot spans 2^16 ns ≈ 65.5 µs
)

// enode is an intrusively listed event node. Nodes are chunk-allocated and
// recycled through the scheduler's free list, so steady-state scheduling
// performs zero heap allocations.
type enode struct {
	at   Time
	seq  uint64
	fn   func()
	ev   Event
	next *enode
}

// slotList is a FIFO list of a slot's events in insertion order.
type slotList struct {
	head, tail *enode
}

// wheelLevel is one ring of slots plus an occupancy bitmap (one bit per
// slot) for next-set-slot scans.
type wheelLevel struct {
	slots [wheelSlots]slotList
	bits  [wheelSlots / 64]uint64
}

func wheelShift(l int) uint { return uint(wheelBaseShift + wheelSlotBits*l) }

// levelFor returns the smallest level at which at and cur share a parent
// slot — i.e. agree on all bits above that level's slot index. Because the
// two agree on the higher-level indices, the chosen slot can never be
// behind the cursor within its level.
func levelFor(at, cur uint64) int {
	hb := bits.Len64(at ^ cur)
	if hb <= wheelBaseShift+wheelSlotBits {
		return 0
	}
	return (hb - (wheelBaseShift + 1)) / wheelSlotBits
}

// insert links n into the slot owning n.at, relative to the cursor.
func (w *wheel) insert(n *enode) {
	at := uint64(n.at)
	l := levelFor(at, w.cur)
	idx := int((at >> wheelShift(l)) & (wheelSlots - 1))
	lv := w.level(l)
	sl := &lv.slots[idx]
	if sl.tail == nil {
		sl.head = n
		lv.bits[idx>>6] |= 1 << (uint(idx) & 63)
	} else {
		sl.tail.next = n
	}
	sl.tail = n
}

// nextSet returns the lowest set bit index >= from, scanning word-wise.
func nextSet(b *[wheelSlots / 64]uint64, from int) (int, bool) {
	w := from >> 6
	k := uint(from & 63)
	cur := b[w] >> k << k // clear bits below from
	for {
		if cur != 0 {
			return w<<6 + bits.TrailingZeros64(cur), true
		}
		w++
		if w == len(b) {
			return 0, false
		}
		cur = b[w]
	}
}

// advance moves the wheel to the next non-empty level-0 slot, cascading
// higher-level slots downward as the cursor crosses their boundaries, and
// expires that slot's events into curList sorted by (at, seq). The caller
// guarantees at least one event is pending in the wheel.
func (s *Scheduler) advance() {
	w := s.wh
	l := 0
	for {
		shift := wheelShift(l)
		lv := w.levels[l]
		if lv == nil {
			// Never-used level: trivially empty.
			l++
			continue
		}
		cursor := int((w.cur >> shift) & (wheelSlots - 1))
		idx, ok := nextSet(&lv.bits, cursor)
		if !ok {
			// This level is empty from the cursor up; the next event lives
			// in a later slot of a higher level.
			l++
			continue
		}
		head := lv.slots[idx].head
		lv.slots[idx] = slotList{}
		lv.bits[idx>>6] &^= 1 << (uint(idx) & 63)
		// Move the cursor to the start of the claimed slot: keep the bits
		// above this level, set this level's index, zero everything below.
		span := uint64(1) << (shift + wheelSlotBits) // 0 (= 2^64) at the top level
		w.cur = w.cur&^(span-1) | uint64(idx)<<shift
		if l == 0 {
			s.curList = s.curList[:0]
			s.curIdx = 0
			for head != nil {
				next := head.next
				s.expireNode(head)
				head = next
			}
			s.curEnd = Time(w.cur + 1<<wheelBaseShift)
			return
		}
		// Cascade: the slot's events re-insert at strictly lower levels,
		// because each now shares this slot (its old parent) with the cursor.
		for head != nil {
			next := head.next
			head.next = nil
			w.insert(head)
			head = next
		}
		l = 0
	}
}

// expireNode moves one expiring node into curList in (at, seq) order and
// recycles it. The FIFO slot list mostly arrives already sorted, so the
// append fast path dominates.
func (s *Scheduler) expireNode(n *enode) {
	f := firing{at: n.at, seq: n.seq, fn: n.fn, ev: n.ev}
	s.putNode(n)
	if k := len(s.curList); k == 0 || !firingLess(f, s.curList[k-1]) {
		s.curList = append(s.curList, f)
		return
	}
	s.insertFiringAt(f, 0)
}

// insertFiring sorts a late arrival (scheduled inside the current, already
// expired slot window) into curList at or after the dequeue cursor.
func (s *Scheduler) insertFiring(f firing) { s.insertFiringAt(f, s.curIdx) }

func (s *Scheduler) insertFiringAt(f firing, lo int) {
	hi := len(s.curList)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if firingLess(f, s.curList[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	s.curList = append(s.curList, firing{})
	copy(s.curList[lo+1:], s.curList[lo:])
	s.curList[lo] = f
}

// Free-list refills start small and double per refill up to the cap, so a
// scheduler's node footprint tracks its peak pending-event count instead of
// paying the full chunk on first use.
const (
	nodeChunkMin = 32
	nodeChunkMax = 256
)

// newNode takes a node from the free list, refilling it chunk-wise.
func (s *Scheduler) newNode() *enode {
	if s.free == nil {
		if s.chunk < nodeChunkMax {
			if s.chunk == 0 {
				s.chunk = nodeChunkMin
			} else {
				s.chunk *= 2
			}
		}
		chunk := make([]enode, s.chunk)
		for i := range chunk[:len(chunk)-1] {
			chunk[i].next = &chunk[i+1]
		}
		s.free = &chunk[0]
	}
	n := s.free
	s.free = n.next
	n.next = nil
	return n
}

// putNode returns a node to the free list, dropping callback references.
func (s *Scheduler) putNode(n *enode) {
	n.fn, n.ev = nil, nil
	n.next = s.free
	s.free = n
}
