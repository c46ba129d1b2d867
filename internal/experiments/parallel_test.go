package experiments

import (
	"reflect"
	"slices"
	"testing"
)

// TestParallelLabMatchesSequential runs the lab's shared workloads — the
// survey dataset and the Zmap scan reports every experiment is built on —
// through the sharded parallel engine and checks them against the
// sequential lab. Identical datasets and reports here mean every experiment
// in the registry reports the same numbers regardless of -parallel.
func TestParallelLabMatchesSequential(t *testing.T) {
	scale := Scale{Seed: 9, Blocks: 64, SurveyCycles: 2, ZmapScans: 1, SampleAddrs: 10, TrainPings: 10}
	seq := NewLab(scale)
	par := NewLab(scale)
	par.Parallel = 4

	seqRecs, seqStats, err := seq.Survey()
	if err != nil {
		t.Fatalf("sequential survey: %v", err)
	}
	parRecs, parStats, err := par.Survey()
	if err != nil {
		t.Fatalf("parallel survey: %v", err)
	}
	if parStats != seqStats {
		t.Errorf("survey stats %+v, sequential %+v", parStats, seqStats)
	}
	if len(parRecs) != len(seqRecs) {
		t.Fatalf("survey: %d records, sequential %d", len(parRecs), len(seqRecs))
	}
	for i := range seqRecs {
		if parRecs[i] != seqRecs[i] {
			t.Fatalf("survey record %d = %+v, sequential %+v", i, parRecs[i], seqRecs[i])
		}
	}

	seqScans, err := seq.Scans(2)
	if err != nil {
		t.Fatalf("sequential scans: %v", err)
	}
	parScans, err := par.Scans(2)
	if err != nil {
		t.Fatalf("parallel scans: %v", err)
	}
	for k := range seqScans {
		s, p := seqScans[k], parScans[k]
		if p.Counters != s.Counters {
			t.Errorf("scan %d: counters %+v, sequential %+v", k, p.Counters, s.Counters)
		}
		if !slices.Equal(p.RTTPercentiles(), s.RTTPercentiles()) {
			t.Errorf("scan %d: %d RTTs differ from the sequential %d", k, len(p.RTTPercentiles()), len(s.RTTPercentiles()))
		}
		if !reflect.DeepEqual(p.Turtles, s.Turtles) || !reflect.DeepEqual(p.Broadcast, s.Broadcast) {
			t.Errorf("scan %d: turtle tallies or broadcast findings differ from the sequential scan's", k)
		}
	}
}
