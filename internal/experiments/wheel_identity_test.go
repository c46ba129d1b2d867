package experiments

import "testing"

// TestWheelByteIdentity pins the timing-wheel scheduler's end-to-end
// output: for obsScale's seed the survey dataset, the scan's response
// stream, the deterministic metric snapshot, the manifest's run section and
// the streaming report must equal the goldens captured while the
// binary-heap engine still ran beside the wheel (and matched it), both
// sequentially and on 8 shards. The scheduler's own ordering contract is
// checked against a test-local heap oracle in internal/simnet.
func TestWheelByteIdentity(t *testing.T) {
	sc := goldenScales[0].scale
	sc.Seed = obsScale.Seed
	for _, parallel := range []int{1, 8} {
		checkGoldens(t, "blocks96/seed42", parallel, runDiffWorkloads(t, sc, parallel))
	}
}
