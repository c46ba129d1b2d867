package zmapper

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"
	"time"

	"timeouts/internal/ipaddr"
	"timeouts/internal/ipmeta"
	"timeouts/internal/netmodel"
	"timeouts/internal/obs"
	"timeouts/internal/simnet"
)

// snapJSON renders a registry's deterministic snapshot for byte comparison.
func snapJSON(t *testing.T, reg *obs.Registry) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// scanDigest runs cfg through RunShardedInto and hashes everything a
// scan's determinism contract covers: the raw response stream in order, the
// probe/packet/corrupt counters, and the deterministic metric snapshot. It
// also returns the number of responses.
func scanDigest(t *testing.T, cfg Config, shards int, fabric func(int) simnet.Fabric) (string, int) {
	t.Helper()
	h := sha256.New()
	n := 0
	counts, err := RunShardedInto(cfg, shards, fabric, func(r Response) {
		n++
		binary.Write(h, binary.BigEndian, [3]int64{int64(r.Dst), int64(r.Src), int64(r.RTT)})
	})
	if err != nil {
		t.Fatalf("RunShardedInto(%d): %v", shards, err)
	}
	binary.Write(h, binary.BigEndian, [3]uint64{counts.ProbesSent, counts.PacketsReceived, counts.CorruptPackets})
	h.Write(snapJSON(t, cfg.Obs))
	return hex.EncodeToString(h.Sum(nil)), n
}

// scanGoldens are scanDigest values pinned from the map-backed scanner
// this package used to carry next to the dense one: one preallocated
// event per probe, a first-self-response map, and the model's per-address
// radio map. The dense scanner (pump event, seeked permutation, bitset
// self-tracking, bounded radio table) must reproduce them byte for byte on
// its raw response stream.
var scanGoldens = map[string]string{
	"pow2/seed5":     "0fba7062a654fbddb2bad4e560aebf04418fc167d9ab792ded9950435725f710",
	"pow2/seed99":    "0cfef7bb91b955d637d32b0b68707dc3c18471ea1ea8ab21423140e35c974567",
	"nonpow2/seed5":  "1b52fcf1e8de4685755169da7faf1c77bfa1e5e51a0ae95c42efcb98f6fdba38",
	"nonpow2/seed99": "1a9dd690da6f8621503fae5e6468b8a07545bd00164fc39a71a48ab7920f48ac",
}

// TestScanDenseMatchesMap pins the scanner's raw response stream to the
// map path's goldens, in one shard and across shard counts, for both
// power-of-two and non-power-of-two populations (the latter exercising the
// permutation's walked Seek).
func TestScanDenseMatchesMap(t *testing.T) {
	src := ipaddr.MustParse("240.0.2.1")
	cases := []struct {
		name    string
		blocks  int
		catalog []netmodel.ASSpec
	}{
		{name: "pow2", blocks: 64},
		// 24 blocks = 6144 addresses: not a power of two, so Seek walks
		// instead of using the closed-form discrete log. The small mixed
		// catalog keeps every behavior class present at this block count.
		{name: "nonpow2", blocks: 24, catalog: testCatalog()},
	}
	for _, cat := range cases {
		for _, seed := range []uint64{5, 99} {
			name := fmt.Sprintf("%s/seed%d", cat.name, seed)
			t.Run(name, func(t *testing.T) {
				pop := netmodel.New(netmodel.Config{Seed: seed, Blocks: cat.blocks, Catalog: cat.catalog})
				cfg := Config{
					Src: src, Continent: ipmeta.NorthAmerica,
					TargetN: pop.NumAddrs(), TargetAt: pop.AddrAt,
					Duration: 10 * time.Minute, Seed: seed,
				}
				// One shard streams in the sequential scan's event order;
				// more shards merge back into it.
				for _, shards := range []int{1, 4, 8} {
					cfg.Obs = obs.NewRegistry()
					got, n := scanDigest(t, cfg, shards, scanFabric(pop, src))
					if n == 0 {
						t.Fatalf("shards=%d: no responses; the golden check is vacuous", shards)
					}
					if got != scanGoldens[name] {
						t.Errorf("shards=%d: digest %s, map-path golden %q", shards, got, scanGoldens[name])
					}
				}
			})
		}
	}
}
