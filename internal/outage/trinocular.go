package outage

import (
	"math"
	"sort"
	"time"

	"timeouts/internal/ipaddr"
	"timeouts/internal/simnet"
)

// This file implements a Trinocular-style belief detector (Quan, Heidemann,
// Pradkin: "Trinocular: Understanding Internet Reliability Through Adaptive
// Probing", SIGCOMM 2013 — the paper's reference [18] and one of the
// outage-detection systems whose 3-second timeout motivates the study).
//
// Trinocular models each /24 block with a belief B(U) that the block is up.
// It probes one address of the block's ever-responsive set E(b) per round;
// each probe outcome updates the belief by Bayes' rule using the block's
// historical address availability A(E(b)). When the belief becomes
// uncertain, it probes adaptively — up to 15 extra probes — until the
// belief crosses a decision threshold.

// TrinocularConfig parameterizes the detector.
type TrinocularConfig struct {
	Src ipaddr.Addr
	// Timeout per probe; Trinocular uses 3 s (the choice under study).
	Timeout time.Duration
	// Interval between belief-maintenance rounds per block.
	Interval time.Duration
	// Rounds of monitoring.
	Rounds int
	// MaxAdaptive bounds the extra probes per round (Trinocular: 15).
	MaxAdaptive int
	// UpBelief / DownBelief are the decision thresholds on B(U).
	UpBelief, DownBelief float64
	Start                simnet.Time
}

func (c TrinocularConfig) withDefaults() TrinocularConfig {
	if c.Timeout == 0 {
		c.Timeout = 3 * time.Second
	}
	if c.Interval == 0 {
		c.Interval = 11 * time.Minute
	}
	if c.Rounds == 0 {
		c.Rounds = 6
	}
	if c.MaxAdaptive == 0 {
		c.MaxAdaptive = 15
	}
	if c.UpBelief == 0 {
		c.UpBelief = 0.9
	}
	if c.DownBelief == 0 {
		c.DownBelief = 0.1
	}
	return c
}

// TrinocularBlock is one monitored /24: its ever-responsive addresses and
// their historical availability A(E(b)) (the probability that a probe to a
// random member draws a response when the block is up).
type TrinocularBlock struct {
	Prefix       ipaddr.Prefix24
	Addrs        []ipaddr.Addr
	Availability float64
}

// TrinocularReport is the outcome for one block.
type TrinocularReport struct {
	Prefix ipaddr.Prefix24
	// Probes counts all probes; Rounds the maintenance rounds.
	Probes, Rounds int
	// DownDecisions counts rounds concluded with belief <= DownBelief.
	DownDecisions int
	// Uncertain counts rounds that exhausted the adaptive budget without
	// crossing either threshold.
	Uncertain int
	// FinalBelief is B(U) after the run.
	FinalBelief float64
}

// MonitorTrinocular runs the belief detector over the blocks and drains the
// scheduler.
func MonitorTrinocular(net *simnet.Network, cfg TrinocularConfig, blocks []TrinocularBlock) []TrinocularReport {
	cfg = cfg.withDefaults()
	pr := newProber(net, cfg.Src)
	defer pr.close()
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].Prefix < blocks[j].Prefix })
	reports := make([]TrinocularReport, len(blocks))
	states := make([]float64, len(blocks)) // belief B(U)
	sched := net.Scheduler()
	for i := range blocks {
		reports[i].Prefix = blocks[i].Prefix
		states[i] = 0.95 // start believing the block is up
		for round := 0; round < cfg.Rounds; round++ {
			i, round := i, round
			sched.At(cfg.Start+simnet.Time(round)*cfg.Interval, func() {
				tr := &trinocularRound{
					p: pr, cfg: cfg, blk: &blocks[i], rep: &reports[i],
					belief: &states[i], seq: uint16(round * 32),
				}
				tr.rep.Rounds++
				tr.probe(0, round)
			})
		}
	}
	sched.Run()
	for i := range reports {
		reports[i].FinalBelief = states[i]
	}
	return reports
}

type trinocularRound struct {
	p      *prober
	cfg    TrinocularConfig
	blk    *TrinocularBlock
	rep    *TrinocularReport
	belief *float64
	seq    uint16
}

// update applies Bayes' rule for one probe outcome. With availability a and
// belief b = P(up):
//
//	P(response | up) = a        P(response | down) = 0
//	P(timeout  | up) = 1 - a    P(timeout  | down) = 1
func (t *trinocularRound) update(responded bool) {
	b := *t.belief
	a := t.blk.Availability
	if responded {
		// A response proves the block is up (no false responses).
		b = 1
	} else {
		num := b * (1 - a)
		den := num + (1 - b)
		if den > 0 {
			b = num / den
		}
	}
	// Trinocular bounds belief away from 0/1 so it can change its mind.
	b = math.Min(0.99, math.Max(0.01, b))
	*t.belief = b
}

func (t *trinocularRound) probe(try, round int) {
	if try > t.cfg.MaxAdaptive {
		t.rep.Uncertain++
		return
	}
	dst := t.blk.Addrs[(round*7+try)%len(t.blk.Addrs)]
	t.rep.Probes++
	t.p.ping(dst, t.seq+uint16(try), t.cfg.Timeout,
		func(time.Duration) {
			t.update(true)
			// Belief restored; round concluded.
		},
		func() {
			t.update(false)
			switch {
			case *t.belief <= t.cfg.DownBelief:
				t.rep.DownDecisions++
			case *t.belief >= t.cfg.UpBelief:
				// Still confident; concluded.
			default:
				t.probe(try+1, round)
			}
		})
}
