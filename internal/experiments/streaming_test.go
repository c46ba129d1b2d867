package experiments

import (
	"bytes"
	"testing"

	"timeouts/internal/core"
	"timeouts/internal/netmodel"
	"timeouts/internal/survey"
)

// TestStreamingPipelineEquivalence checks the ways a survey reaches the
// matcher: for two population seeds, run a real (sharded) survey, serialize
// the dataset in both binary formats, and require that streaming each
// serialized dataset through core.StreamMatcher — what cmd/analyze does —
// and probing the survey straight into one render reports byte-identical to
// core.Match over the materialized records, with no address flagged out of
// emission order.
func TestStreamingPipelineEquivalence(t *testing.T) {
	for _, seed := range []uint64{42, 1337} {
		cfg := netmodel.Config{Seed: seed, Blocks: 96}
		pop := netmodel.New(cfg)
		scfg := survey.Config{
			Vantage: survey.VantageW,
			Blocks:  pop.Blocks(),
			Cycles:  8,
			Seed:    seed,
		}
		var mem survey.MemWriter
		if _, err := survey.RunSharded(scfg, 3, ShardFabric(pop), &mem); err != nil {
			t.Fatalf("seed %d: survey: %v", seed, err)
		}
		opt := core.MatchOptionsForCycles(scfg.Cycles)
		check := func(how string, res *core.Result) {
			t.Helper()
			if res.OutOfOrder != 0 {
				t.Errorf("seed %d: %s: %d addresses out of emission order", seed, how, res.OutOfOrder)
			}
		}
		res := core.Match(mem.Records, opt)
		check("in memory", res)
		want := core.RenderReport(res, false)

		// Through each serialized dataset format.
		hdr := survey.Header{Seed: seed, Vantage: 'w'}
		var fixed, compact bytes.Buffer
		fw := survey.NewWriter(&fixed, hdr)
		cw := survey.NewCompactWriter(&compact, hdr)
		for _, r := range mem.Records {
			if fw.Write(r) != nil || cw.Write(r) != nil {
				t.Fatal("write failed")
			}
		}
		if fw.Flush() != nil || cw.Flush() != nil {
			t.Fatal("flush failed")
		}
		for name, buf := range map[string]*bytes.Buffer{"fixed": &fixed, "compact": &compact} {
			src, _, err := survey.OpenSource(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("seed %d: OpenSource(%s): %v", seed, name, err)
			}
			m := core.NewStreamMatcher(opt)
			if err := m.Consume(src); err != nil {
				t.Fatalf("seed %d: consuming %s: %v", seed, name, err)
			}
			res := m.Finalize()
			check(name, res)
			if got := core.RenderReport(res, false); got != want {
				t.Errorf("seed %d: streaming report over %s differs from in-memory:\n--- streaming ---\n%s--- in-memory ---\n%s",
					seed, name, got, want)
			}
		}

		// And with no dataset at all: the survey probing straight into the
		// matcher, sharded.
		m := core.NewStreamMatcher(opt)
		if _, err := survey.RunSharded(scfg, 3, ShardFabric(pop), m); err != nil {
			t.Fatalf("seed %d: direct streaming survey: %v", seed, err)
		}
		res = m.Finalize()
		check("direct", res)
		if got := core.RenderReport(res, false); got != want {
			t.Errorf("seed %d: direct-plumbed streaming report differs from in-memory", seed)
		}
	}
}
