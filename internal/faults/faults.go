// Package faults is a seeded, deterministic fault-injection layer for the
// measurement pipeline. Every fault decision is a pure function of
// (plan seed, injection site, site-local keys) via xrand.Hash, so the layer
// preserves the determinism invariant (DESIGN.md §7): a fixed fault seed
// yields the same faults in every run, independent of goroutine scheduling,
// shard count, or I/O chunking. Chaos runs are therefore exactly
// reproducible, and fault-free runs are byte-identical to runs without the
// layer compiled in at all.
//
// Three fault families are provided:
//
//   - Wire faults (WireConfig): in-flight corruption, truncation, and
//     duplication of simulated deliveries, applied by simnet.Network. Keys
//     are the delivery's (rank, index) identity — the same identity used by
//     the sharded merge — so the same deliveries are faulted whether a run
//     is sequential or sharded.
//
//   - Data faults (DataConfig): bit-flips in stored datasets, applied by
//     the CorruptReader/CorruptWriter wrappers. Keys are absolute byte
//     offsets, so corruption is independent of read/write chunking.
//
//   - Process faults (ProcConfig): injected shard-worker panics, used to
//     prove simnet.RunShards converts worker panics into errors naming the
//     shard. Keys are shard numbers.
package faults

import (
	"fmt"

	"timeouts/internal/xrand"
)

// Injection sites. Each site hashes with a distinct constant so decisions at
// different sites are independent even under the same seed and keys.
const (
	siteWireFault    uint64 = 0x77697265 // "wire": does this delivery fault at all?
	siteWireKind     uint64 = 0x6b696e64 // "kind": which wire fault?
	siteWireBit      uint64 = 0x62697421 // "bit!": which bit flips?
	siteWireTruncLen uint64 = 0x74727563 // "truc": truncate to how many bytes?
	siteWireDupCount uint64 = 0x64757063 // "dupc": how many extra copies?
	siteDataByte     uint64 = 0x64617461 // "data": does this stored byte flip?
	siteDataBit      uint64 = 0x64626974 // "dbit": which bit of it?
	siteProcPanic    uint64 = 0x70616e69 // "pani": does this shard worker panic?
	siteCrashOp      uint64 = 0x63726173 // "cras": does durable-write op N simulate a kill?
)

// WireConfig sets per-delivery fault rates for the simulated network. Each
// delivery suffers at most one fault; the rates are independent
// probabilities and their sum should stay well below 1.
type WireConfig struct {
	// CorruptRate is the probability a delivered packet has one bit
	// flipped in flight.
	CorruptRate float64
	// TruncateRate is the probability a delivered packet is cut short.
	TruncateRate float64
	// DuplicateRate is the probability a delivery is duplicated in flight
	// (the receiver sees extra identical copies at the same instant).
	DuplicateRate float64
	// DuplicateMax bounds the extra copies per duplicated delivery
	// (default 1).
	DuplicateMax int
}

func (c WireConfig) active() bool {
	return c.CorruptRate > 0 || c.TruncateRate > 0 || c.DuplicateRate > 0
}

// DataConfig sets fault rates for stored datasets.
type DataConfig struct {
	// FlipRate is the per-byte probability that a byte passing through a
	// CorruptReader/CorruptWriter has one bit flipped.
	FlipRate float64
}

// ProcConfig sets process-level fault rates.
type ProcConfig struct {
	// ShardPanicRate is the probability a given shard worker panics at the
	// start of its run.
	ShardPanicRate float64
}

// CrashConfig sets rates for injected crash-points around durable-state
// writes. Components that persist state (the advisor's checkpointer) number
// every step that touches the disk — temp-file create, each chunk write,
// sync, rename, generation GC — and consult the plan before performing it;
// a hit simulates the process dying exactly there, leaving whatever bytes
// already reached the disk. Keys are the global operation sequence number,
// so a fixed seed kills the same step in every run — the recovery
// invariant's chaos tests sweep seeds to cover the whole write path.
type CrashConfig struct {
	// OpRate is the per-operation probability of a simulated kill.
	OpRate float64
}

// Plan is a complete fault-injection configuration. The zero value — and a
// nil *Plan — injects nothing; every method is nil-safe so call sites can
// thread an optional plan without guards.
type Plan struct {
	// Seed drives every fault decision. Two runs with the same plan are
	// identical; changing the seed reshuffles which deliveries, bytes, and
	// shards are hit without changing the rates.
	Seed  uint64
	Wire  WireConfig
	Data  DataConfig
	Proc  ProcConfig
	Crash CrashConfig
}

// WireActive reports whether the plan injects wire-level faults.
func (p *Plan) WireActive() bool { return p != nil && p.Wire.active() }

// DataActive reports whether the plan injects dataset-level faults.
func (p *Plan) DataActive() bool { return p != nil && p.Data.FlipRate > 0 }

// ProcActive reports whether the plan injects process-level faults.
func (p *Plan) ProcActive() bool { return p != nil && p.Proc.ShardPanicRate > 0 }

// CrashActive reports whether the plan injects crash-points.
func (p *Plan) CrashActive() bool { return p != nil && p.Crash.OpRate > 0 }

// WireFaultKind identifies the fault applied to one delivery.
type WireFaultKind int

const (
	// WireCorrupt flips one bit of the packet.
	WireCorrupt WireFaultKind = iota
	// WireTruncate cuts the packet short.
	WireTruncate
	// WireDuplicate delivers extra identical copies.
	WireDuplicate
)

// String names the fault kind.
func (k WireFaultKind) String() string {
	switch k {
	case WireCorrupt:
		return "corrupt"
	case WireTruncate:
		return "truncate"
	case WireDuplicate:
		return "duplicate"
	}
	return fmt.Sprintf("WireFaultKind(%d)", int(k))
}

// WireFault describes the fault to apply to one delivery.
type WireFault struct {
	Kind WireFaultKind
	// Bit is the flat bit index to flip (Kind == WireCorrupt).
	Bit int
	// Len is the truncated length in bytes (Kind == WireTruncate).
	Len int
	// Extra is the number of extra copies to deliver (Kind == WireDuplicate).
	Extra int
}

// WireFaultFor decides whether the delivery identified by (rank, index) —
// the same identity simnet's deterministic merge is keyed on, so the
// decision is shard-invariant — suffers a fault, and which. size is the
// packet length in bytes; packets too small to fault meaningfully are left
// alone.
func (p *Plan) WireFaultFor(rank uint64, index int, size int) (WireFault, bool) {
	if !p.WireActive() || size <= 0 {
		return WireFault{}, false
	}
	u := xrand.HashFloat(p.Seed, siteWireFault, rank, uint64(index))
	c := p.Wire
	// Partition [0,1) into adjacent bands, one per fault kind, so a single
	// uniform draw picks at most one fault and the bands shift only when
	// rates change.
	switch {
	case u < c.CorruptRate:
		bit := xrand.HashIntn(size*8, p.Seed, siteWireBit, rank, uint64(index))
		return WireFault{Kind: WireCorrupt, Bit: bit}, true
	case u < c.CorruptRate+c.TruncateRate:
		if size < 2 {
			return WireFault{}, false
		}
		n := 1 + xrand.HashIntn(size-1, p.Seed, siteWireTruncLen, rank, uint64(index))
		return WireFault{Kind: WireTruncate, Len: n}, true
	case u < c.CorruptRate+c.TruncateRate+c.DuplicateRate:
		max := c.DuplicateMax
		if max < 1 {
			max = 1
		}
		extra := 1 + xrand.HashIntn(max, p.Seed, siteWireDupCount, rank, uint64(index))
		return WireFault{Kind: WireDuplicate, Extra: extra}, true
	}
	return WireFault{}, false
}

// FlipByte decides whether the dataset byte at the given absolute offset is
// corrupted, and returns the (possibly) corrupted value. Keying on the
// offset alone makes the corruption independent of how reads and writes are
// chunked.
func (p *Plan) FlipByte(off uint64, b byte) (byte, bool) {
	if !p.DataActive() {
		return b, false
	}
	if xrand.HashFloat(p.Seed, siteDataByte, off) >= p.Data.FlipRate {
		return b, false
	}
	bit := xrand.HashIntn(8, p.Seed, siteDataBit, off)
	return b ^ (1 << bit), true
}

// ShardPanics decides whether the worker for the given shard should panic.
func (p *Plan) ShardPanics(shard int) bool {
	if !p.ProcActive() {
		return false
	}
	return xrand.HashFloat(p.Seed, siteProcPanic, uint64(shard)) < p.Proc.ShardPanicRate
}

// CrashAt decides whether the durable-write operation with the given global
// sequence number simulates a process kill. Keying on the sequence number
// alone makes the decision independent of what the operation writes, so the
// same seed kills the same step of the same save in every run.
func (p *Plan) CrashAt(op uint64) bool {
	if !p.CrashActive() {
		return false
	}
	return xrand.HashFloat(p.Seed, siteCrashOp, op) < p.Crash.OpRate
}

// MaybePanicShard panics with a recognizable message if the plan injects a
// panic for the given shard. Shard bodies call it first thing; the panic is
// expected to be recovered by simnet.RunShards and surfaced as an error
// naming the shard.
func (p *Plan) MaybePanicShard(shard int) {
	if p.ShardPanics(shard) {
		panic(fmt.Sprintf("faults: injected panic in shard %d (seed %d)", shard, p.Seed))
	}
}
