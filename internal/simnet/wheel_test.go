package simnet

import (
	"container/heap"
	"testing"
	"time"
)

// countEvent is a minimal Event for allocation tests.
type countEvent struct{ n int }

func (e *countEvent) Run(Time) { e.n++ }

// TestSchedulerZeroAlloc proves the wheel's steady state allocates nothing:
// scheduling a pooled Event and stepping it costs zero heap allocations once
// the node free list and slot buffers are warm.
func TestSchedulerZeroAlloc(t *testing.T) {
	s := NewScheduler()
	ev := &countEvent{}
	for i := 0; i < 4096; i++ {
		s.AtEvent(Time(i)*50*time.Microsecond, ev)
	}
	s.Run()
	at := s.Now()
	allocs := testing.AllocsPerRun(2000, func() {
		at += 50 * time.Microsecond
		s.AtEvent(at, ev)
		s.Step()
	})
	if allocs != 0 {
		t.Fatalf("schedule+step allocated %.1f times per op, want 0", allocs)
	}
	if s.Pending() != 0 {
		t.Fatalf("events left pending: %d", s.Pending())
	}
}

// engine is the scheduling surface the differential tests drive.
type engine interface {
	Now() Time
	At(t Time, fn func())
	AtEvent(t Time, ev Event)
	AtEventFront(t Time, ev Event)
	Run()
}

// heapSched is the differential oracle: a plain binary heap over (time,
// sequence) with the Scheduler's past-time clamp and front band. It is the
// engine the timing wheel replaced, kept here only so the wheel's dequeue
// order has an obviously-correct reference.
type heapSched struct {
	now Time
	seq uint64
	q   firingHeap
}

type firingHeap []firing

func (h firingHeap) Len() int           { return len(h) }
func (h firingHeap) Less(i, j int) bool { return firingLess(h[i], h[j]) }
func (h firingHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *firingHeap) Push(x any)        { *h = append(*h, x.(firing)) }
func (h *firingHeap) Pop() any {
	old := *h
	f := old[len(old)-1]
	*h = old[:len(old)-1]
	return f
}

func (s *heapSched) push(t Time, fn func(), ev Event, band uint64) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	heap.Push(&s.q, firing{at: t, seq: band | s.seq, fn: fn, ev: ev})
}

func (s *heapSched) Now() Time                     { return s.now }
func (s *heapSched) At(t Time, fn func())          { s.push(t, fn, nil, seqNormalBand) }
func (s *heapSched) AtEvent(t Time, ev Event)      { s.push(t, nil, ev, seqNormalBand) }
func (s *heapSched) AtEventFront(t Time, ev Event) { s.push(t, nil, ev, 0) }
func (s *heapSched) Run() {
	for s.q.Len() > 0 {
		f := heap.Pop(&s.q).(firing)
		s.now = f.at
		if f.fn != nil {
			f.fn()
		} else {
			f.ev.Run(f.at)
		}
	}
}

// engines builds the wheel and the heap oracle for differential tests.
func engines() map[string]engine {
	return map[string]engine{
		"wheel": NewScheduler(),
		"heap":  &heapSched{},
	}
}

// TestSchedulerPastClampFIFO is the regression test for the interaction of
// the past-time clamp with the wheel's current-slot cursor: events scheduled
// from inside a running event at t < Now and t == Now must run in the same
// FIFO order the heap oracle produces — after already-pending events of
// the same (clamped) time, in insertion order.
func TestSchedulerPastClampFIFO(t *testing.T) {
	orders := map[string][]int{}
	for name, s := range engines() {
		var order []int
		logged := func(id int) func() {
			return func() { order = append(order, id) }
		}
		base := 10 * time.Millisecond
		s.At(base, func() {
			order = append(order, 0)
			// Same-time and past-time inserts from inside a running event:
			// all clamp to Now and must run after the pending id=1, id=2
			// below (earlier insertion seq), in this insertion order.
			s.At(base, logged(3))           // t == Now
			s.At(base-time.Hour, logged(4)) // t < Now, clamps to Now
			s.At(0, logged(5))              // far past, clamps to Now
			// And a later event must still sort behind all of them only by
			// time, not insertion order.
			s.At(base+time.Microsecond, logged(6))
		})
		s.At(base, logged(1))
		s.At(base, logged(2))
		s.Run()
		orders[name] = order
	}
	want := []int{0, 1, 2, 3, 4, 5, 6}
	for name, got := range orders {
		if len(got) != len(want) {
			t.Fatalf("%s: got %v, want %v", name, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: got %v, want %v", name, got, want)
			}
		}
	}
}

// runSchedProgram interprets data as a scheduling program against s: each
// top-level event is scheduled from 3 input bytes, and running events
// consume further bytes to decide on nested inserts — including same-time
// and past-time ones. It returns the event ids in execution order. Two
// equivalent engines consume the program identically, so any divergence in
// dequeue order shows up as a differing id sequence.
func runSchedProgram(s engine, data []byte) []uint64 {
	var order []uint64
	var id uint64
	pos := 0
	nextByte := func() byte {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return b
	}
	var schedule func(depth int)
	schedule = func(depth int) {
		// 3 bytes of delay, scaled to span wheel slots and levels, shifted
		// so some inserts land in the past and exercise the clamp.
		raw := uint32(nextByte())<<16 | uint32(nextByte())<<8 | uint32(nextByte())
		at := s.Now() + Time(raw)*977 - 50*time.Microsecond
		myID := id
		id++
		s.At(at, func() {
			order = append(order, myID)
			if depth < 3 && nextByte()&3 == 0 {
				schedule(depth + 1)
			}
		})
	}
	for pos < len(data) {
		schedule(0)
	}
	s.Run()
	return order
}

// FuzzWheelVsHeap drives the wheel and the heap oracle with the same
// scheduling program and requires identical execution orders.
func FuzzWheelVsHeap(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 1, 1, 2, 3})
	f.Add([]byte{255, 255, 255, 0, 0, 0, 128, 4, 4, 0, 17, 99, 3, 1, 4, 1, 5, 9, 2, 6})
	f.Add([]byte{0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 4, 4, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		wheel := runSchedProgram(NewScheduler(), data)
		ref := runSchedProgram(&heapSched{}, data)
		if len(wheel) != len(ref) {
			t.Fatalf("event counts diverge: wheel %d, heap %d", len(wheel), len(ref))
		}
		for i := range wheel {
			if wheel[i] != ref[i] {
				t.Fatalf("dequeue order diverges at %d: wheel %d, heap %d", i, wheel[i], ref[i])
			}
		}
	})
}

// TestWheelVsHeapLongHorizon crosses several wheel levels: sparse events up
// to hours apart interleaved with dense microsecond bursts must dequeue in
// heap-oracle order.
func TestWheelVsHeapLongHorizon(t *testing.T) {
	var data []byte
	// Deterministic pseudo-program: a SplitMix-ish byte stream.
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < 600; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		data = append(data, byte(x), byte(x>>8), byte(x>>16))
	}
	wheel := runSchedProgram(NewScheduler(), data)
	ref := runSchedProgram(&heapSched{}, data)
	if len(wheel) != len(ref) {
		t.Fatalf("event counts diverge: wheel %d, heap %d", len(wheel), len(ref))
	}
	for i := range wheel {
		if wheel[i] != ref[i] {
			t.Fatalf("dequeue order diverges at %d: wheel %d, heap %d", i, wheel[i], ref[i])
		}
	}
}

// logEvent records its id into a shared order slice when run.
type logEvent struct {
	order *[]int
	id    int
}

func (e *logEvent) Run(Time) { *e.order = append(*e.order, e.id) }

// TestSchedulerFrontBand proves AtEventFront's ordering contract on the
// wheel and the heap oracle: at equal times every front event runs before
// every normal event regardless of insertion order, events within a band
// stay FIFO among themselves, and differing times still dominate both
// bands. Front events scheduled from inside a running event (the scan pump
// re-scheduling itself) keep the contract too.
func TestSchedulerFrontBand(t *testing.T) {
	orders := map[string][]int{}
	for name, s := range engines() {
		var order []int
		at := func(id int, at Time, front bool) {
			ev := &logEvent{order: &order, id: id}
			if front {
				s.AtEventFront(at, ev)
			} else {
				s.AtEvent(at, ev)
			}
		}
		base := 10 * time.Millisecond
		at(0, base, false) // normal, inserted first
		at(1, base, false) // normal, FIFO after 0
		at(2, base, true)  // front: beats 0 and 1 despite later insertion
		at(3, base, true)  // front, FIFO after 2
		at(4, base-time.Millisecond, false)
		at(5, base+time.Millisecond, true) // later time loses to all of the above
		// A front event scheduled mid-run for a later tick still front-runs
		// normal events already queued at that tick.
		s.At(base-time.Millisecond, func() {
			order = append(order, 6)
			s.AtEventFront(base, &logEvent{order: &order, id: 7})
		})
		s.Run()
		orders[name] = order
	}
	want := []int{4, 6, 2, 3, 7, 0, 1, 5}
	for name, got := range orders {
		if len(got) != len(want) {
			t.Fatalf("%s: ran %d events, want %d (%v)", name, len(got), len(want), got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: order = %v, want %v", name, got, want)
			}
		}
	}
}
