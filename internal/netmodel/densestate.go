package netmodel

import "fmt"

// Radio state: a map of per-host state would cap populations at simulation
// scale — one heap allocation and one map entry per cellular address ever
// probed. At internet scale almost all of that state is dead weight,
// because the radio state machine only distinguishes an address from a
// fresh one while it is *recent*:
//
//   - wakeHold's first branch needs wakeUntil only while t < wakeUntil, and
//     wakeUntil ≤ lastActive always holds after every update (lastActive is
//     raised to t+hold ≥ wakeUntil).
//   - Its second branch treats any entry with t-lastActive > IdleTimeout
//     exactly like a missing entry (the !used and the idle-expired arms run
//     the same code), and IdleTimeout = 10 + 60·u with u ∈ [0,1) is
//     strictly below 70 for every profile.
//
// So once sim time has moved more than radioHorizon past an entry's
// lastActive, dropping the entry cannot change any future decision: the
// model is byte-for-byte equivalent with or without it — an equivalence the
// goldens pinned from the unbounded per-address map still check. That
// holds for every probe at or after the drop, so probe times must not go
// back past the last prune; each shard's scheduler clock is monotone, and
// get panics on a probe that breaks the rule. The table holds only the
// working set of recently active radios, independent of population size.
const radioHorizon = 70.0

// radioEntry is one open-addressed slot: the address key plus its
// hostState, inline.
type radioEntry struct {
	addr uint32
	occ  bool
	st   hostState
}

// radioTable is the model's per-host radio state: an open-addressed,
// linearly probed hash table over uint32 addresses whose growth step first
// evicts entries older than radioHorizon (see above for why eviction is
// invisible to the model's outputs).
type radioTable struct {
	slots []radioEntry
	count int
	// prunedAt is the sim time of the last rehash that evicted an entry;
	// no probe may come earlier (zero: nothing evicted yet).
	prunedAt float64
}

const radioTableMinSize = 1024

// get returns the state cell for addr, claiming an empty slot if the
// address has none. now is the current sim time, used by the horizon prune
// when the table needs room; it must not be earlier than the last prune.
// The returned pointer is valid until the next get call.
func (rt *radioTable) get(addr uint32, now float64) *hostState {
	if now < rt.prunedAt {
		panic(fmt.Sprintf("netmodel: probe at %.6fs comes before the radio table's last horizon prune at %.6fs; "+
			"probe times must not go backwards (call ResetRadioState between independent runs)", now, rt.prunedAt))
	}
	if rt.slots == nil {
		rt.slots = make([]radioEntry, radioTableMinSize)
	}
	// Load factor 3/4: rehash (prune, growing only if pruning freed too
	// little) before the probe chains degrade.
	if (rt.count+1)*4 > len(rt.slots)*3 {
		rt.rehash(now)
	}
	mask := uint32(len(rt.slots) - 1)
	for i := (addr * 0x9E3779B1) & mask; ; i = (i + 1) & mask {
		e := &rt.slots[i]
		if !e.occ {
			e.occ = true
			e.addr = addr
			e.st = hostState{}
			rt.count++
			return &e.st
		}
		if e.addr == addr {
			return &e.st
		}
	}
}

// rehash rebuilds the table without entries whose lastActive is more than
// radioHorizon behind now; it doubles the slot count only when live entries
// would still fill half the current table, so a stable working set stays at
// a stable size no matter how many addresses pass through.
func (rt *radioTable) rehash(now float64) {
	old := rt.slots
	live := 0
	for i := range old {
		if old[i].occ && now-old[i].st.lastActive <= radioHorizon {
			live++
		}
	}
	size := len(old)
	for (live+1)*2 > size {
		size *= 2
	}
	if live < rt.count {
		rt.prunedAt = now
	}
	rt.slots = make([]radioEntry, size)
	rt.count = 0
	mask := uint32(size - 1)
	for i := range old {
		e := &old[i]
		if !e.occ || now-e.st.lastActive > radioHorizon {
			continue
		}
		for j := (e.addr * 0x9E3779B1) & mask; ; j = (j + 1) & mask {
			if !rt.slots[j].occ {
				rt.slots[j] = *e
				rt.count++
				break
			}
		}
	}
}
