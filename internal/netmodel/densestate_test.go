package netmodel

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"strings"
	"testing"

	"timeouts/internal/xrand"
)

// denseProbePlan builds a deterministic, time-monotone sequence of
// (cellular profile, probe time) pairs that revisits addresses at spacings
// straddling every state-machine regime: mid-wake, active, idle-expired,
// and long-evicted.
func denseProbePlan(p *Population, n int) []struct {
	pr Profile
	t  float64
} {
	var cell []Profile
	for i := 0; i < p.NumAddrs() && len(cell) < 64; i++ {
		pr := p.Profile(p.AddrAt(i))
		if pr.Responsive && pr.Class == ClassCellular {
			cell = append(cell, pr)
		}
	}
	plan := make([]struct {
		pr Profile
		t  float64
	}, 0, n)
	t := 1.0
	for i := 0; i < n; i++ {
		r := xrand.Hash(99, uint64(i))
		// Steps from 0.25s (inside a wake) through minutes (idle expiry)
		// to multi-hour gaps (horizon eviction in the table).
		switch r % 5 {
		case 0:
			t += 0.25
		case 1:
			t += 3
		case 2:
			t += 45
		case 3:
			t += 200
		case 4:
			t += 9000
		}
		plan = append(plan, struct {
			pr Profile
			t  float64
		}{cell[int(r>>8)%len(cell)], t})
	}
	return plan
}

// radioHoldGolden is the SHA-256 of the 20,000-step plan's hold sequence
// (each hold's float64 bits, big-endian), pinned from the unbounded
// per-address map the radio table replaced. Horizon eviction must be
// invisible: the bounded table reproduces every hold bit for bit.
const radioHoldGolden = "1d788ad040b0b295185f7365eeea6ae4f1552a1e943a80a010cbc09e101bc343"

// TestDenseRadioStateMatchesMap drives the radio state machine through a
// probe schedule that crosses table growth and horizon eviction, and
// requires the map path's exact hold sequence with a table bounded well
// below the number of probes.
func TestDenseRadioStateMatchesMap(t *testing.T) {
	p := testPop(512)
	plan := denseProbePlan(p, 20000)
	m := NewModel(p)
	h := sha256.New()
	for _, step := range plan {
		binary.Write(h, binary.BigEndian, math.Float64bits(m.wakeHold(&step.pr, step.t)))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != radioHoldGolden {
		t.Errorf("hold sequence hash %s, map-path golden %q", got, radioHoldGolden)
	}
	if m.radio.count >= len(plan)/2 {
		t.Fatalf("radio table holds %d entries after %d probes; horizon pruning is not bounding it", m.radio.count, len(plan))
	}
}

// TestDenseResetMatchesFreshModel: a mid-run ResetRadioState must leave the
// model byte-identical to a brand-new one, and reset must not degrade into
// a rebuild (it drops the bounded table, O(1)).
func TestDenseResetMatchesFreshModel(t *testing.T) {
	p := testPop(512)
	plan := denseProbePlan(p, 4000)
	used := NewModel(p)
	for _, step := range plan[:2000] {
		used.wakeHold(&step.pr, step.t)
	}
	used.ResetRadioState()
	if used.radio.slots != nil || used.radio.prunedAt != 0 {
		t.Fatal("ResetRadioState kept the table or its prune record")
	}

	fresh := NewModel(p)
	for i, step := range plan[2000:] {
		hu := used.wakeHold(&step.pr, step.t)
		hf := fresh.wakeHold(&step.pr, step.t)
		if hu != hf {
			t.Fatalf("step %d: reset model hold %v, fresh model hold %v", i, hu, hf)
		}
	}
}

// TestRadioTableRejectsTimeTravel pins the table's precondition: a probe
// earlier than the last horizon prune could have needed an evicted entry,
// so it panics instead of silently diverging. Probes that go backwards
// without crossing a prune are still served, and ResetRadioState clears
// the record so an independent run may start over at time zero.
func TestRadioTableRejectsTimeTravel(t *testing.T) {
	p := testPop(512)
	var cell []Profile
	for i := 0; i < p.NumAddrs() && len(cell) < 2*radioTableMinSize; i++ {
		if pr := p.Profile(p.AddrAt(i)); pr.Responsive && pr.Class == ClassCellular {
			cell = append(cell, pr)
		}
	}
	// One new host a second: the table fills past its load factor and the
	// rehash evicts the hosts idle for longer than the horizon.
	m := NewModel(p)
	for i := range cell {
		m.wakeHold(&cell[i], float64(i))
	}
	pruned := m.radio.prunedAt
	if pruned == 0 {
		t.Fatalf("%d hosts never pruned the table; the precondition is untested", len(cell))
	}
	last := &cell[len(cell)-1]
	m.wakeHold(last, pruned) // backwards, but not past the prune: allowed

	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("probe before the last prune did not panic")
			}
			if msg, _ := r.(string); !strings.Contains(msg, "before the radio table's last horizon prune") {
				t.Fatalf("panic %v does not explain the violated rule", r)
			}
		}()
		m.wakeHold(last, pruned-1)
	}()

	m.ResetRadioState()
	m.wakeHold(&cell[0], 0) // a fresh start at time zero is fine
}
