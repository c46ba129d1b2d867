package netmodel

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"timeouts/internal/ipaddr"
	"timeouts/internal/ipmeta"
	"timeouts/internal/xrand"
)

// Config parameterizes a synthetic population.
type Config struct {
	// Seed drives all population randomness. Populations with equal
	// configs are identical.
	Seed uint64

	// Blocks is the number of /24 address blocks to allocate across the AS
	// catalog. Zero selects DefaultBlocks.
	Blocks int

	// Catalog is the AS catalog to allocate from; nil selects
	// DefaultCatalog().
	Catalog []ASSpec

	// CellularScale multiplies every AS's CellularFrac, modelling the
	// growth of cellular deployment across survey years (Figure 9 shows
	// high latency rising from 2006 to 2015). Zero means 1.
	CellularScale float64

	// SleepyScale multiplies the rate of >100 s buffered-outage episodes.
	// Zero means 1.
	SleepyScale float64
}

// DefaultBlocks is the default population size: 1024 /24 blocks = 262,144
// addresses, a ~1/57000 scale model of the IPv4 space that keeps every
// behavioral class populated.
const DefaultBlocks = 1024

// withDefaults fills in the zero-value defaults.
func (c Config) withDefaults() Config {
	if c.Blocks == 0 {
		c.Blocks = DefaultBlocks
	}
	if c.Catalog == nil {
		c.Catalog = DefaultCatalog()
	}
	return c
}

// Validate reports a configuration New cannot build: every AS of the
// catalog needs at least one block, so the block count (after defaults)
// must be at least the catalog's AS count. New panics on exactly this
// error; command-line tools call Validate first and reject bad flags.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.Blocks < len(c.Catalog) {
		return fmt.Errorf("netmodel: %d blocks cannot cover %d ASes", c.Blocks, len(c.Catalog))
	}
	return nil
}

// baseBlock is the /24 of 1.0.0.0; allocation proceeds upward from here.
const baseBlock = ipaddr.Prefix24(0x010000)

// block is the per-/24 state New derives once: the owning AS and every draw
// the model makes per block. The table holding it is indexed by
// prefix−baseBlock, so a probe's AS lookup, BlockProfile and routing depth
// cost a bounds check and an index.
type block struct {
	as         int32 // index into Population.catalog
	hostBits   uint8 // BlockProfile.HostBits
	hops       uint8 // per-block routing depth, 0..3 (see hostHops)
	bcast      bool  // BlockProfile.BroadcastEnabled
	netReplies bool  // BlockProfile.NetworkReplies
	firewall   bool  // BlockProfile.FirewallTCPRST
}

// Population is an immutable synthetic address population. Shards share
// one Population without locks: nothing changes it after New.
type Population struct {
	cfg      Config
	blocks   []block // allocated /24s in address order, from baseBlock
	db       *ipmeta.DB
	catalog  []ASSpec
	cellMul  float64
	sleepMul float64
}

// New builds a population from the config.
func New(cfg Config) *Population {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	// The population keeps its own catalog: a caller's later edits to the
	// slice it passed must not change the hosts.
	cfg.Catalog = slices.Clone(cfg.Catalog)
	p := &Population{cfg: cfg, catalog: cfg.Catalog, cellMul: cfg.CellularScale, sleepMul: cfg.SleepyScale}
	if p.cellMul == 0 {
		p.cellMul = 1
	}
	if p.sleepMul == 0 {
		p.sleepMul = 1
	}
	p.allocate()
	return p
}

// allocate partitions cfg.Blocks across the catalog by weight using the
// largest-remainder method, guaranteeing at least one block per AS, and
// derives each block's table entry.
func (p *Population) allocate() {
	specs := p.catalog
	total := 0.0
	for _, s := range specs {
		total += s.Weight
	}
	type share struct {
		idx   int
		whole int
		frac  float64
	}
	shares := make([]share, len(specs))
	assigned := 0
	// Reserve one block per AS up front, distribute the rest by weight.
	spare := p.cfg.Blocks - len(specs)
	for i, s := range specs {
		exact := s.Weight / total * float64(spare)
		w := int(math.Floor(exact))
		shares[i] = share{idx: i, whole: w, frac: exact - float64(w)}
		assigned += w
	}
	rem := spare - assigned
	sort.Slice(shares, func(i, j int) bool { return shares[i].frac > shares[j].frac })
	for i := 0; i < rem; i++ {
		shares[i%len(shares)].whole++
	}
	sort.Slice(shares, func(i, j int) bool { return shares[i].idx < shares[j].idx })

	var b ipmeta.Builder
	next := baseBlock
	p.blocks = make([]block, 0, p.cfg.Blocks)
	for i, s := range specs {
		n := shares[i].whole + 1
		b.Add(ipmeta.Range{Start: next, Blocks: n, AS: s.AS})
		for j := 0; j < n; j++ {
			blk := drawBlock(p.cfg.Seed, next, s.AS.Type == ipmeta.Broadband)
			blk.as = int32(i)
			p.blocks = append(p.blocks, blk)
			next++
		}
	}
	db, err := b.Build()
	if err != nil {
		panic("netmodel: internal allocation overlap: " + err.Error())
	}
	p.db = db
}

// Seed returns the population seed.
func (p *Population) Seed() uint64 { return p.cfg.Seed }

// DB returns the address-metadata database for the population, playing the
// role of the MaxMind lookups in §6.2.
func (p *Population) DB() *ipmeta.DB { return p.db }

// NumBlocks returns the number of allocated /24 blocks.
func (p *Population) NumBlocks() int { return p.cfg.Blocks }

// NumAddrs returns the number of allocated addresses.
func (p *Population) NumAddrs() int { return p.cfg.Blocks * 256 }

// Blocks returns all allocated /24 prefixes in address order.
func (p *Population) Blocks() []ipaddr.Prefix24 {
	out := make([]ipaddr.Prefix24, len(p.blocks))
	for i := range out {
		out[i] = baseBlock + ipaddr.Prefix24(i)
	}
	return out
}

// Contains reports whether the address is inside the allocated space.
func (p *Population) Contains(a ipaddr.Addr) bool {
	_, ok := p.block(a.Prefix())
	return ok
}

// block returns the table entry of an allocated prefix. A prefix below
// baseBlock wraps around to a huge index, so one comparison rejects both
// ends of the allocated range.
func (p *Population) block(pre ipaddr.Prefix24) (*block, bool) {
	i := uint32(pre - baseBlock)
	if i >= uint32(len(p.blocks)) {
		return nil, false
	}
	return &p.blocks[i], true
}

// spec finds the ASSpec owning a prefix.
func (p *Population) spec(pre ipaddr.Prefix24) (*ASSpec, bool) {
	b, ok := p.block(pre)
	if !ok {
		return nil, false
	}
	return &p.catalog[b.as], true
}

// AddrAt returns the i-th allocated address (0 <= i < NumAddrs), counting in
// address order. Used by scanners to enumerate the population.
func (p *Population) AddrAt(i int) ipaddr.Addr {
	return ipaddr.Addr(uint32(baseBlock)<<8 + uint32(i))
}

// hash salts for the independent per-address draws.
const (
	saltResponsive = iota + 1
	saltClass
	saltSeverity
	saltAccess
	saltDistance
	saltLoss
	saltDup
	saltDupCount
	saltBroadcastDev
	saltIdle
	saltErrResp
	saltBlockSplit
	saltBlockBcast
	saltBlockFirewall
	saltCong
	saltSleepy
	saltWake
	saltSvc
	saltDupSpread
	saltScanJitter
	saltJoin
)

// Class is the behavioral class of a host.
type Class uint8

// Host classes, roughly ordered by expected latency tail.
const (
	// ClassServer hosts sit in datacenters: low base latency, negligible
	// queueing.
	ClassServer Class = iota
	// ClassQuiet hosts are well-provisioned wireline subscribers.
	ClassQuiet
	// ClassDSL hosts are ordinary wireline subscribers with moderate
	// queueing during busy periods.
	ClassDSL
	// ClassCongested hosts sit behind chronically oversubscribed or
	// deeply buffered links (the bufferbloat population).
	ClassCongested
	// ClassCellular hosts are mobile devices: radio wake-up before the
	// first packet, deep queues, and occasional buffered outages.
	ClassCellular
	// ClassSatellite hosts use geosynchronous satellite service.
	ClassSatellite
)

var classNames = [...]string{"server", "quiet", "dsl", "congested", "cellular", "satellite"}

// String returns a short label.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// Profile is the immutable behavioral profile of one address, derived
// deterministically from (seed, address).
type Profile struct {
	Addr       ipaddr.Addr
	AS         ipmeta.AS
	Responsive bool
	Class      Class

	// Severity in [0,1] scales the host's pathology: episode rates, queue
	// depth, wake-up tail. The turtle population is the high-severity end
	// of the cellular/congested classes.
	Severity float64

	// AccessRTT is the last-mile round-trip component.
	AccessRTT float64 // seconds

	// DistanceJitter scales the propagation component (path indirectness).
	DistanceJitter float64

	// LossRate is the base probe-loss probability.
	LossRate float64

	// DupCount is 0 for normal hosts; 2..4 for duplicating links; large
	// (up to millions) for misconfigured/DoS responders (§3.3.2).
	DupCount int

	// RespondsToBroadcast reports whether the device answers echo requests
	// sent to its subnet's broadcast address (§3.3.1).
	RespondsToBroadcast bool

	// ICMPErrorResponder reports whether probes to this (unoccupied)
	// address draw a host-unreachable from the block gateway.
	ICMPErrorResponder bool

	// IdleTimeout is how long the cellular radio stays awake after
	// traffic; probes that arrive later pay the wake-up delay.
	IdleTimeout float64 // seconds

	// JoinTime, when nonzero, is the simulation time (seconds) at which
	// the device first became responsive (a "late joiner").
	JoinTime float64

	// SatBase is the satellite base RTT (seconds), zero for non-satellite.
	SatBase float64
	// SatQueueCap caps satellite queueing (seconds).
	SatQueueCap float64

	// h is xrand.Hash(seed, Addr). Every per-address draw of the model is
	// an extension of it (xrand.Extend), so a probe hashes the address once.
	h uint64
}

// Profile derives the behavior profile for an address. Addresses outside
// the allocated space return a zero profile with Responsive=false.
func (p *Population) Profile(a ipaddr.Addr) Profile {
	var pr Profile
	p.profileInto(&pr, a)
	return pr
}

// draw returns the uniform [0,1) value of xrand.Extend(h, keys...): for
// h = xrand.Hash(seed, k), the value xrand.HashFloat(seed, k, keys...) gives.
func draw(h uint64, keys ...uint64) float64 {
	return xrand.Float01(xrand.Extend(h, keys...))
}

// usOf is a probe time in whole microseconds, the key per-probe draws mix in.
func usOf(t float64) uint64 { return uint64(int64(t * 1e6)) }

// profileInto builds the profile of a into *pr, so the model can keep it in
// scratch instead of copying it out per probe.
func (p *Population) profileInto(pr *Profile, a ipaddr.Addr) {
	h := xrand.Hash(p.cfg.Seed, uint64(a))
	*pr = Profile{Addr: a, h: h}
	b, ok := p.block(a.Prefix())
	if !ok {
		return
	}
	spec := &p.catalog[b.as]
	pr.AS = spec.AS

	// Subnet network/broadcast addresses never host devices.
	if b.profile(a.Prefix()).IsSpecial(a.LastOctet()) {
		// A gateway may still emit errors for them, handled by the model.
		return
	}

	// Whether a device at this address answers subnet-broadcast pings
	// (§3.3.1). Deliberately independent of direct responsiveness: the
	// paper found 939,559 broadcast responders in the Zmap scan of which
	// only 7,212 also answered direct survey probes — most broadcast
	// responders are devices (printers, routers with ACLs) that answer the
	// broadcast but not their own address, and those are exactly the ones
	// whose replies get falsely matched to timed-out direct probes.
	pr.RespondsToBroadcast = draw(h, saltBroadcastDev) < 0.08

	// Responsiveness. A band of addresses just above the base threshold
	// are "late joiners": devices deployed during the measurement period,
	// responsive only after JoinTime. They reproduce the gradual growth of
	// Zmap responder counts across the paper's scan series (Table 3:
	// 339M in April to ~370M in July).
	u0 := draw(h, saltResponsive)
	switch {
	case u0 < spec.Responsiveness:
		pr.Responsive = true
	case u0 < spec.Responsiveness*1.15:
		pr.Responsive = true
		pr.JoinTime = 60 * 86400 * draw(h, saltJoin)
	default:
		// A small share of unoccupied addresses draw ICMP errors from the
		// gateway; the survey records and then ignores them (§3.1).
		pr.ICMPErrorResponder = draw(h, saltErrResp) < 0.02
		return
	}

	// Class assignment within the AS.
	u := draw(h, saltClass)
	cellFrac := spec.CellularFrac * p.cellMul
	if cellFrac > 1 {
		cellFrac = 1
	}
	switch {
	case spec.AS.Type == ipmeta.Satellite:
		pr.Class = ClassSatellite
	case u < cellFrac:
		pr.Class = ClassCellular
	case spec.AS.Type == ipmeta.Datacenter:
		pr.Class = ClassServer
	default:
		// Split the wireline remainder among quiet/DSL/congested according
		// to the AS congestion level.
		v := (u - cellFrac) / (1 - cellFrac + 1e-12)
		congested := 0.02 + 0.10*spec.CongestionLevel
		dsl := 0.45 + 0.2*spec.CongestionLevel
		switch {
		case v < congested:
			pr.Class = ClassCongested
		case v < congested+dsl:
			pr.Class = ClassDSL
		default:
			pr.Class = ClassQuiet
		}
	}

	pr.Severity = draw(h, saltSeverity)
	if pr.Class == ClassServer {
		// Datacenters sit near exchange points: short, direct paths. This
		// is the population behind Table 2's top row (0.01-0.18 s).
		pr.DistanceJitter = 0.25 + 0.35*draw(h, saltDistance)
	} else {
		pr.DistanceJitter = 0.8 + 0.7*draw(h, saltDistance)
	}

	rng := xrand.FromHash(xrand.Extend(h, saltAccess))
	switch pr.Class {
	case ClassServer:
		pr.AccessRTT = 0.001 + 0.004*rng.Float64()
		pr.LossRate = 0.001
	case ClassQuiet:
		pr.AccessRTT = 0.008 + 0.030*rng.Float64()
		pr.LossRate = 0.003 + 0.01*draw(h, saltLoss)
	case ClassDSL:
		pr.AccessRTT = 0.015 + 0.050*rng.Float64()
		pr.LossRate = 0.005 + 0.02*draw(h, saltLoss)
	case ClassCongested:
		pr.AccessRTT = 0.030 + 0.080*rng.Float64()
		pr.LossRate = 0.02 + 0.06*draw(h, saltLoss)
	case ClassCellular:
		pr.AccessRTT = 0.040 + 0.110*rng.Float64()
		pr.LossRate = 0.01 + 0.05*draw(h, saltLoss)
		pr.IdleTimeout = 10 + 60*draw(h, saltIdle)
	case ClassSatellite:
		pr.SatBase = (spec.SatBaseMS + spec.SatSpreadMS*rng.Float64()) / 1000
		pr.SatQueueCap = spec.SatQueueCapMS / 1000
		pr.AccessRTT = 0.010 + 0.020*rng.Float64()
		pr.LossRate = 0.01 + 0.02*draw(h, saltLoss)
	}

	// Duplicate responders (§3.3.2): ~1% of hosts duplicate (2-4 copies);
	// a tiny fraction of those are misconfigured or retaliating and send
	// hundreds to millions of responses.
	if draw(h, saltDup) < 0.022 {
		r2 := xrand.FromHash(xrand.Extend(h, saltDupCount))
		if r2.Float64() < 0.010 {
			// Heavy tail: hundreds up to millions of responses per request
			// (misconfiguration or retaliatory DoS, §3.3.2).
			n := int(r2.Pareto(700, 0.55))
			if n > 2_000_000 {
				n = 2_000_000
			}
			pr.DupCount = n
		} else if r2.Float64() < 0.30 {
			pr.DupCount = 5 + r2.Intn(90)
		} else {
			pr.DupCount = 2 + r2.Intn(3)
		}
	}
}

// BlockProfile captures per-/24 behavior: how the block is subnetted (which
// determines its broadcast addresses), whether those subnets answer
// broadcast pings, and whether a stateful firewall RSTs unsolicited TCP.
type BlockProfile struct {
	Prefix ipaddr.Prefix24
	// HostBits is the host-part width of the subnets the /24 is split
	// into: 8 means the /24 is one subnet, 7 two /25s, and so on.
	HostBits int
	// BroadcastEnabled reports whether devices in the block are configured
	// to answer subnet-broadcast echo requests at all.
	BroadcastEnabled bool
	// NetworkReplies reports whether devices also answer the all-zeros
	// (network) address, an older-stack behavior.
	NetworkReplies bool
	// FirewallTCPRST: a perimeter firewall answers unsolicited TCP ACKs to
	// any address in the block with an immediate RST (Figure 10's 200 ms
	// TCP mode).
	FirewallTCPRST bool
}

// BlockProfile derives the block-level profile for a /24. Allocated blocks
// read it from the table New filled; any other prefix draws it the same
// way, without a firewall (it has no broadband AS).
func (p *Population) BlockProfile(pre ipaddr.Prefix24) BlockProfile {
	if b, ok := p.block(pre); ok {
		return b.profile(pre)
	}
	b := drawBlock(p.cfg.Seed, pre, false)
	return b.profile(pre)
}

// drawBlock makes a block's hash draws, all of them extensions of
// xrand.Hash(seed, prefix). Only blocks of broadband ASes draw a firewall.
func drawBlock(seed uint64, pre ipaddr.Prefix24, broadband bool) block {
	h := xrand.Hash(seed, uint64(pre))
	var b block
	// Subnetting distribution: most /24s are one subnet; the rest are
	// split on power-of-two boundaries (Figure 2's spikes at 255/0,
	// 127/128, 63/64/191/192, ...).
	u := draw(h, saltBlockSplit)
	switch {
	case u < 0.55:
		b.hostBits = 8
	case u < 0.77:
		b.hostBits = 7
	case u < 0.89:
		b.hostBits = 6
	case u < 0.955:
		b.hostBits = 5
	case u < 0.985:
		b.hostBits = 4
	case u < 0.996:
		b.hostBits = 3
	default:
		b.hostBits = 2
	}
	v := draw(h, saltBlockBcast)
	b.bcast = v < 0.018
	b.netReplies = v < 0.007
	if broadband {
		b.firewall = draw(h, saltBlockFirewall) < 0.10
	}
	b.hops = uint8(xrand.Extend(h, saltBlockHops) % 4)
	return b
}

// profile returns the block's BlockProfile.
func (b *block) profile(pre ipaddr.Prefix24) BlockProfile {
	return BlockProfile{
		Prefix:           pre,
		HostBits:         int(b.hostBits),
		BroadcastEnabled: b.bcast,
		NetworkReplies:   b.netReplies,
		FirewallTCPRST:   b.firewall,
	}
}

// subnetMask returns the host-part mask for the block's subnets.
func (bp BlockProfile) subnetMask() byte { return byte(1<<bp.HostBits - 1) }

// IsBroadcast reports whether the last octet is the all-ones host address of
// its subnet within this block.
func (bp BlockProfile) IsBroadcast(lastOctet byte) bool {
	m := bp.subnetMask()
	return lastOctet&m == m
}

// IsNetwork reports whether the last octet is the all-zeros host address of
// its subnet within this block.
func (bp BlockProfile) IsNetwork(lastOctet byte) bool {
	return lastOctet&bp.subnetMask() == 0
}

// IsSpecial reports whether the last octet is a network or broadcast
// address of its subnet.
func (bp BlockProfile) IsSpecial(lastOctet byte) bool {
	return bp.IsBroadcast(lastOctet) || bp.IsNetwork(lastOctet)
}

// SubnetOf returns the first last-octet of the subnet containing the octet.
func (bp BlockProfile) SubnetOf(lastOctet byte) byte {
	return lastOctet &^ bp.subnetMask()
}

// SubnetSize returns the number of addresses per subnet.
func (bp BlockProfile) SubnetSize() int { return 1 << bp.HostBits }
