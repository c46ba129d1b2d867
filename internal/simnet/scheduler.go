// Package simnet provides the discrete-event simulation substrate: a
// deterministic scheduler with a simulated clock, and a network that carries
// wire-format packets between measurement tools (probers at vantage points)
// and a pluggable fabric that models the probed population.
//
// Everything runs single-threaded inside the event loop; determinism — the
// same seed always yields byte-identical datasets — is a design requirement,
// because the analysis verifies cross-tool consistency (the same addresses
// must be slow in every scan, as in the paper's Figure 7).
package simnet

import (
	"time"

	"timeouts/internal/obs"
)

// Time is simulation time: the duration since the simulation epoch.
type Time = time.Duration

// Event is a typed scheduled callback. Hot paths implement Event on pooled
// or preallocated objects instead of passing closures to At, eliminating the
// per-event allocation: the scheduler stores the two-word interface value in
// an intrusively free-listed node and never boxes anything.
type Event interface {
	// Run is invoked with the clock set to the event's time.
	Run(now Time)
}

// firing is one scheduled event in dequeue form: either fn (legacy closure)
// or ev is set. The total order over all events is (at, seq); seq is the
// global insertion sequence, so equal-time events run FIFO.
type firing struct {
	at  Time
	seq uint64
	fn  func()
	ev  Event
}

func firingLess(a, b firing) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Scheduler is a deterministic discrete-event scheduler. The zero value is
// ready to use, starting at time zero.
//
// Events are ordered by (time, insertion sequence). The engine is a
// hierarchical timing wheel (see wheel.go): O(1) insert and amortized-O(1)
// dequeue, with zero steady-state allocations — event nodes come from an
// intrusive free list. Its dequeue order equals a binary heap's over
// (time, sequence) by construction; FuzzWheelVsHeap checks that against a
// test-local heap oracle.
type Scheduler struct {
	now Time
	seq uint64
	n   int // total pending events

	// Wheel engine state. curList holds the events of the current (already
	// expired) level-0 slot, sorted by (at, seq); curIdx is the next to run;
	// curEnd is the end of that slot's time window. Events scheduled at
	// t < curEnd — including same-time and past-time-clamped inserts from
	// inside a running event — are sorted directly into curList at a
	// position ≥ curIdx, which is what preserves exact heap-equivalent FIFO
	// order around the wheel's slot cursor.
	wh      *wheel
	curList []firing
	curIdx  int
	curEnd  Time
	free    *enode
	chunk   int // current free-list refill size (doubles up to nodeChunkMax)

	// Observability (installed by SetObserver). obsOn gates the hot path:
	// with no registry the per-event cost is one predictable branch.
	// Event counts and queue depth depend on how a run is partitioned — a
	// sharded run schedules its own sweep events per shard — so they are
	// diagnostic metrics, excluded from the deterministic snapshot.
	obsOn           bool
	eventsScheduled *obs.Counter
	queueDepthHWM   *obs.Gauge
}

// NewScheduler returns an empty scheduler at time zero, equivalent to
// &Scheduler{}.
func NewScheduler() *Scheduler { return &Scheduler{} }

// SetObserver registers the scheduler's diagnostic metrics (events
// scheduled, event-queue depth high-water mark) on reg.
func (s *Scheduler) SetObserver(reg *obs.Registry) {
	s.eventsScheduled = reg.DiagCounter("simnet.events_scheduled")
	s.queueDepthHWM = reg.DiagGauge("simnet.queue_depth_hwm")
	s.obsOn = reg != nil
}

// Now returns the current simulation time.
func (s *Scheduler) Now() Time { return s.now }

// At schedules fn to run at absolute time t. Scheduling in the past (t <
// Now) runs fn at the current time, preserving event order.
func (s *Scheduler) At(t Time, fn func()) { s.schedule(t, fn, nil) }

// AtEvent schedules ev to run at absolute time t with the same semantics as
// At. It is the allocation-free form: the scheduler holds only the interface
// value, so a pooled or preallocated Event costs nothing per schedule.
func (s *Scheduler) AtEvent(t Time, ev Event) { s.schedule(t, nil, ev) }

// After schedules fn to run d from now.
func (s *Scheduler) After(d time.Duration, fn func()) { s.schedule(s.now+d, fn, nil) }

// seqNormalBand is OR-ed into the insertion sequence of normally scheduled
// events. Front-band events (AtEventFront) keep the raw sequence, so at equal
// times every front event orders before every normal event, while events
// within a band stay FIFO among themselves. The counter itself can never
// reach 2^63, so the band bit is unambiguous.
const seqNormalBand = uint64(1) << 63

// AtEventFront schedules ev at absolute time t ahead of every normally
// scheduled event at the same instant. The scanner uses it for its
// self-rescheduling probe pump: probes must win every equal-time tie
// against deliveries — the order a scan that pre-inserted one event per
// probe before any delivery existed would produce — and a pump that
// re-schedules itself mid-run can only reproduce that order from the front
// band.
func (s *Scheduler) AtEventFront(t Time, ev Event) { s.scheduleBand(t, nil, ev, 0) }

func (s *Scheduler) schedule(t Time, fn func(), ev Event) {
	s.scheduleBand(t, fn, ev, seqNormalBand)
}

func (s *Scheduler) scheduleBand(t Time, fn func(), ev Event, band uint64) {
	if s.wh == nil {
		s.wh = new(wheel)
	}
	if t < s.now {
		t = s.now
	}
	s.seq++
	key := band | s.seq
	s.n++
	if t < s.curEnd {
		// The wheel's current slot has already been expired into curList;
		// late arrivals for its window sort in after the dequeue cursor.
		s.insertFiring(firing{at: t, seq: key, fn: fn, ev: ev})
	} else {
		nd := s.newNode()
		nd.at, nd.seq, nd.fn, nd.ev = t, key, fn, ev
		s.wh.insert(nd)
	}
	if s.obsOn {
		s.eventsScheduled.Inc()
		s.queueDepthHWM.Observe(int64(s.n))
	}
}

// Step runs the next event, advancing the clock. It reports false when no
// events remain.
func (s *Scheduler) Step() bool {
	if s.curIdx >= len(s.curList) {
		if s.n == 0 {
			return false
		}
		s.advance()
	}
	i := s.curIdx
	f := s.curList[i]
	s.curList[i].fn, s.curList[i].ev = nil, nil // release for GC before running
	s.curIdx++
	s.n--
	s.now = f.at
	if f.fn != nil {
		f.fn()
	} else {
		f.ev.Run(f.at)
	}
	return true
}

// peek returns the time of the next event without running it.
func (s *Scheduler) peek() (Time, bool) {
	if s.curIdx < len(s.curList) {
		return s.curList[s.curIdx].at, true
	}
	if s.n == 0 {
		return 0, false
	}
	s.advance()
	return s.curList[s.curIdx].at, true
}

// Run drains the event queue until empty.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

// RunUntil processes events with time <= deadline, then sets the clock to
// the deadline. Events beyond the deadline stay queued.
func (s *Scheduler) RunUntil(deadline Time) {
	for {
		t, ok := s.peek()
		if !ok || t > deadline {
			break
		}
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}
