package netmodel

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"timeouts/internal/ipaddr"
	"timeouts/internal/ipmeta"
	"timeouts/internal/simnet"
	"timeouts/internal/wire"
	"timeouts/internal/xrand"
)

// oracle is the derivation the per-/24 table replaced: a binary search over
// the AS assignments and fresh hashes of (seed, prefix) and (seed, address)
// on every call. The table and the address-hash extensions must answer
// exactly as it does.
type oracle struct {
	seed    uint64
	assigns []oracleAssign
}

type oracleAssign struct {
	start  ipaddr.Prefix24
	blocks int
	spec   ASSpec
}

// oracleFor pairs the population's address ranges with the catalog they
// were allocated from, in order.
func oracleFor(t *testing.T, p *Population, catalog []ASSpec) oracle {
	t.Helper()
	ranges := p.DB().Ranges()
	if len(ranges) != len(catalog) {
		t.Fatalf("%d ranges for %d ASes", len(ranges), len(catalog))
	}
	o := oracle{seed: p.Seed()}
	for i, r := range ranges {
		if r.AS != catalog[i].AS {
			t.Fatalf("range %d belongs to AS%d, catalog entry %d is AS%d", i, r.AS.ASN, i, catalog[i].AS.ASN)
		}
		o.assigns = append(o.assigns, oracleAssign{start: r.Start, blocks: r.Blocks, spec: catalog[i]})
	}
	return o
}

func (o oracle) spec(pre ipaddr.Prefix24) (*ASSpec, bool) {
	i := sort.Search(len(o.assigns), func(i int) bool {
		return o.assigns[i].start+ipaddr.Prefix24(o.assigns[i].blocks) > pre
	})
	if i == len(o.assigns) || pre < o.assigns[i].start {
		return nil, false
	}
	return &o.assigns[i].spec, true
}

func (o oracle) blockProfile(pre ipaddr.Prefix24) BlockProfile {
	key := uint64(pre)
	bp := BlockProfile{Prefix: pre}
	u := xrand.HashFloat(o.seed, key, saltBlockSplit)
	switch {
	case u < 0.55:
		bp.HostBits = 8
	case u < 0.77:
		bp.HostBits = 7
	case u < 0.89:
		bp.HostBits = 6
	case u < 0.955:
		bp.HostBits = 5
	case u < 0.985:
		bp.HostBits = 4
	case u < 0.996:
		bp.HostBits = 3
	default:
		bp.HostBits = 2
	}
	v := xrand.HashFloat(o.seed, key, saltBlockBcast)
	bp.BroadcastEnabled = v < 0.018
	bp.NetworkReplies = v < 0.007
	if spec, ok := o.spec(pre); ok && spec.AS.Type == ipmeta.Broadband {
		bp.FirewallTCPRST = xrand.HashFloat(o.seed, key, saltBlockFirewall) < 0.10
	}
	return bp
}

func (o oracle) edgeHops(vc ipmeta.Continent, pre ipaddr.Prefix24) int {
	spec, ok := o.spec(pre)
	if !ok {
		return baseHops[vc][vc]
	}
	return baseHops[vc][spec.AS.Continent] + xrand.HashIntn(4, o.seed, uint64(pre), saltBlockHops) - 2
}

func (o oracle) hostHops(vc ipmeta.Continent, a ipaddr.Addr) int {
	spec, ok := o.spec(a.Prefix())
	if !ok {
		return baseHops[vc][vc]
	}
	return baseHops[vc][spec.AS.Continent] +
		xrand.HashIntn(4, o.seed, uint64(a.Prefix()), saltBlockHops) +
		xrand.HashIntn(3, o.seed, uint64(a), saltHops)
}

func (o oracle) replyTTL(vc ipmeta.Continent, a ipaddr.Addr) byte {
	init := 255
	switch u := xrand.HashFloat(o.seed, uint64(a), saltStackTTL); {
	case u < 0.58:
		init = 64
	case u < 0.92:
		init = 128
	}
	return clampTTL(init - o.hostHops(vc, a))
}

func clampTTL(ttl int) byte {
	if ttl < 1 {
		ttl = 1
	}
	return byte(ttl)
}

// customCatalog is a catalog of the kind `-catalog` loads: a few ASes of
// mixed types, one of them broadband so firewalls are drawn.
const customCatalog = `[
  {"AS": {"ASN": 65001, "Owner": "Mobile A", "Type": "cellular", "Continent": "South America"},
   "Weight": 3, "CellularFrac": 0.9, "CongestionLevel": 0.5, "Responsiveness": 0.3},
  {"AS": {"ASN": 65002, "Owner": "Cable B", "Type": "broadband", "Continent": "Europe"},
   "Weight": 5, "CellularFrac": 0.01, "CongestionLevel": 0.2, "Responsiveness": 0.2},
  {"AS": {"ASN": 65003, "Owner": "Sat C", "Type": "satellite", "Continent": "Oceania"},
   "Weight": 0.5, "Responsiveness": 0.18, "SatBaseMS": 600, "SatSpreadMS": 60, "SatQueueCapMS": 2000},
  {"AS": {"ASN": 65004, "Owner": "Colo D", "Type": "datacenter", "Continent": "North America"},
   "Weight": 1, "CongestionLevel": 0.01, "Responsiveness": 0.34}
]`

// TestBlockTableMatchesOracle pins the per-/24 table: for every allocated
// prefix, and for prefixes on both sides of the allocated range, the AS,
// BlockProfile, edge and host hop counts and the TTLs built on them equal
// the search-and-hash derivation, for the default catalog at several sizes
// and for a catalog loaded from JSON.
func TestBlockTableMatchesOracle(t *testing.T) {
	custom, err := ReadCatalog(strings.NewReader(customCatalog))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		catalog []ASSpec
		blocks  int
	}{
		{"default/30", DefaultCatalog(), 30},
		{"default/64", DefaultCatalog(), 64},
		{"default/1024", DefaultCatalog(), 1024},
		{"custom/4", custom, 4},
		{"custom/97", custom, 97},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := New(Config{Seed: 11, Blocks: tc.blocks, Catalog: tc.catalog})
			o := oracleFor(t, p, tc.catalog)
			blocks := p.Blocks()
			if len(blocks) != tc.blocks {
				t.Fatalf("%d blocks, want %d", len(blocks), tc.blocks)
			}
			firewalls := 0
			check := func(pre ipaddr.Prefix24, allocated bool) {
				t.Helper()
				want, wok := o.spec(pre)
				got, gok := p.spec(pre)
				if gok != wok || gok != allocated || p.Contains(pre.Addr(7)) != allocated {
					t.Fatalf("%s: spec ok %v, Contains %v, oracle ok %v, allocated %v", pre, gok, p.Contains(pre.Addr(7)), wok, allocated)
				}
				if gok && *got != *want {
					t.Fatalf("%s: spec AS%d, oracle AS%d", pre, got.AS.ASN, want.AS.ASN)
				}
				if g, w := p.BlockProfile(pre), o.blockProfile(pre); g != w {
					t.Fatalf("%s: BlockProfile %+v, oracle %+v", pre, g, w)
				}
				if p.BlockProfile(pre).FirewallTCPRST {
					firewalls++
				}
				for vc := ipmeta.Continent(0); int(vc) < ipmeta.NumContinents; vc++ {
					e := o.edgeHops(vc, pre)
					if g := p.edgeHops(vc, pre); g != e {
						t.Fatalf("%s from %s: edgeHops %d, oracle %d", pre, vc, g, e)
					}
					if g, w := p.FirewallTTL(vc, pre), clampTTL(255-e); g != w {
						t.Fatalf("%s from %s: FirewallTTL %d, oracle %d", pre, vc, g, w)
					}
					if g, w := p.GatewayTTL(vc, pre), clampTTL(255-e-1); g != w {
						t.Fatalf("%s from %s: GatewayTTL %d, oracle %d", pre, vc, g, w)
					}
					for _, octet := range []byte{0, 1, byte(pre) * 37, 254, 255} {
						a := pre.Addr(octet)
						if g, w := p.HostHops(vc, a), o.hostHops(vc, a); g != w || g > maxHostHops {
							t.Fatalf("%s from %s: HostHops %d, oracle %d (bound %d)", a, vc, g, w, maxHostHops)
						}
						if g, w := p.ReplyTTL(vc, a), o.replyTTL(vc, a); g != w {
							t.Fatalf("%s from %s: ReplyTTL %d, oracle %d", a, vc, g, w)
						}
					}
				}
			}
			for _, pre := range blocks {
				check(pre, true)
			}
			if firewalls == 0 && tc.blocks >= 64 {
				t.Error("no firewalled block: the broadband path went unchecked")
			}
			last := blocks[len(blocks)-1]
			for _, pre := range []ipaddr.Prefix24{0, 1, baseBlock - 2, baseBlock - 1, last + 1, last + 2, last + 1000, 0xffffff} {
				check(pre, false)
			}
		})
	}
}

// TestMaxHostHopsBoundsEveryPath pins the bound Respond uses to skip the
// hop draw: the longest continental base plus the largest per-block and
// per-host draws.
func TestMaxHostHopsBoundsEveryPath(t *testing.T) {
	longest := 0
	for _, row := range baseHops {
		for _, h := range row {
			longest = max(longest, h)
		}
	}
	if got := longest + 3 + 2; got != maxHostHops {
		t.Errorf("longest modelled path is %d hops, maxHostHops is %d", got, maxHostHops)
	}
}

// TestPopulationKeepsItsCatalog: shards share a Population without locks,
// so a caller's later edits to the catalog slice it passed must not reach
// the hosts.
func TestPopulationKeepsItsCatalog(t *testing.T) {
	catalog := DefaultCatalog()
	p := New(Config{Seed: 3, Blocks: 64, Catalog: catalog})
	before := make([]Profile, 0, 4096)
	for i := 0; i < 4096; i++ {
		before = append(before, p.Profile(p.AddrAt(i*4)))
	}
	for i := range catalog {
		catalog[i].Responsiveness = 0
		catalog[i].AS.Continent = ipmeta.Oceania
	}
	for i, want := range before {
		if got := p.Profile(p.AddrAt(i * 4)); got != want {
			t.Fatalf("profile of %s changed after the caller edited its catalog", got.Addr)
		}
	}
}

// TestSharedPopulationConcurrentModels: shards share one Population, each
// with its own Model. Models probing it from several goroutines at once
// must answer exactly as one model alone does (`make race` runs this).
func TestSharedPopulationConcurrentModels(t *testing.T) {
	p := New(Config{Seed: 5, Blocks: 64})
	src := ipaddr.MustParse("240.0.0.1")
	run := func() [][]byte {
		m := NewModel(p)
		m.AddVantage(src, ipmeta.Europe)
		var out [][]byte
		for i := 0; i < 4096; i++ {
			dst := p.AddrAt(i * 4 % p.NumAddrs())
			pkt := wire.EncodeEcho(src, dst, &wire.ICMPEcho{Type: wire.ICMPTypeEchoRequest, ID: 1, Seq: uint16(i)})
			for _, d := range m.Respond(src, simnet.Time(i)*simnet.Time(time.Second), pkt) {
				out = append(out, append([]byte(fmt.Sprint(d.Delay, d.Count)), d.Data...))
			}
		}
		return out
	}
	want := run()
	const workers = 4
	got := make([][][]byte, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = run()
		}(w)
	}
	wg.Wait()
	for w := range got {
		if len(got[w]) != len(want) {
			t.Fatalf("worker %d: %d deliveries, want %d", w, len(got[w]), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[w][i], want[i]) {
				t.Fatalf("worker %d: delivery %d differs from the sequential model's", w, i)
			}
		}
	}
}
