package outage

import (
	"time"

	"timeouts/internal/ipaddr"
	"timeouts/internal/simnet"
)

// This file implements the probing strategies the paper discusses as
// alternatives to a single fixed timeout (§7):
//
//   - TCPStyle: "send another probe after 3 seconds, but continue listening
//     for a response to earlier probes" — the paper's explicit
//     recommendation. Retransmissions keep the detector responsive; the
//     long listen window keeps slow-but-healthy hosts from becoming false
//     losses.
//
//   - Adaptive: a per-target RTO in the style of TCP (Jacobson/Karels:
//     SRTT + 4*RTTVAR, seeded conservatively), as a comparison point. The
//     paper's §4.2 warns this cannot fully substitute for long listening,
//     because the latency tail (wake-up, buffered outages) is not predicted
//     by smoothed history.

// StrategyConfig parameterizes a strategy comparison run.
type StrategyConfig struct {
	Src ipaddr.Addr
	// Interval between monitoring rounds.
	Interval time.Duration
	// Rounds of monitoring per host.
	Rounds int
	// RetransmitAfter is the quick trigger for follow-up probes (the
	// paper: 3 s, like TCP's initial SYN timeout).
	RetransmitAfter time.Duration
	// ListenFor is the long listen window after the *first* probe of a
	// round (the paper recommends ~60 s).
	ListenFor time.Duration
	// Retransmits bounds follow-up probes per round.
	Retransmits int
	Start       simnet.Time
}

func (c StrategyConfig) withDefaults() StrategyConfig {
	if c.Interval == 0 {
		c.Interval = 11 * time.Minute
	}
	if c.Rounds == 0 {
		c.Rounds = 6
	}
	if c.RetransmitAfter == 0 {
		c.RetransmitAfter = 3 * time.Second
	}
	if c.ListenFor == 0 {
		c.ListenFor = 60 * time.Second
	}
	if c.Retransmits == 0 {
		c.Retransmits = 3
	}
	return c
}

// StrategyReport summarizes one host under the TCP-style strategy.
type StrategyReport struct {
	Addr ipaddr.Addr
	// Rounds monitored; DownRounds where nothing answered within the
	// listen window.
	Rounds, DownRounds int
	// ProbesSent counts all probes including retransmissions.
	ProbesSent int
	// AnsweredLate counts rounds rescued by the long listen window: the
	// quick trigger had already fired (a fixed-timeout detector would have
	// declared loss) but a response to an earlier probe arrived before the
	// window closed.
	AnsweredLate int
	// AnsweredFast counts rounds where the first probe answered within the
	// quick trigger.
	AnsweredFast int
}

// MonitorTCPStyle runs the paper's recommended strategy over the addresses
// and drains the scheduler. Each round: probe; after RetransmitAfter with
// no response, retransmit (up to Retransmits), while continuing to listen
// for every outstanding probe until ListenFor elapses.
func MonitorTCPStyle(net *simnet.Network, cfg StrategyConfig, addrs []ipaddr.Addr) []StrategyReport {
	cfg = cfg.withDefaults()
	pr := newProber(net, cfg.Src)
	defer pr.close()
	reports := make([]StrategyReport, len(addrs))
	sched := net.Scheduler()
	for i, a := range addrs {
		reports[i].Addr = a
		for round := 0; round < cfg.Rounds; round++ {
			i, round := i, round
			at := cfg.Start + simnet.Time(round)*cfg.Interval
			sched.At(at, func() {
				r := &tcpStyleRound{p: pr, cfg: cfg, rep: &reports[i], seq: uint16(round * 16)}
				r.start()
			})
		}
	}
	sched.Run()
	return reports
}

// tcpStyleRound drives one round: quick retransmissions, long listening.
type tcpStyleRound struct {
	p        *prober
	cfg      StrategyConfig
	rep      *StrategyReport
	seq      uint16
	answered bool
	closed   bool
	sent     int
	firstGot bool
}

func (r *tcpStyleRound) start() {
	r.rep.Rounds++
	deadline := r.p.sched.Now() + r.cfg.ListenFor
	r.p.sched.At(deadline, func() {
		r.closed = true
		if !r.answered {
			r.rep.DownRounds++
		}
	})
	r.probe(0)
}

func (r *tcpStyleRound) probe(try int) {
	if r.answered || r.closed {
		return
	}
	r.sent++
	r.rep.ProbesSent++
	// Each probe listens until the round's deadline, not just until the
	// retransmit trigger: the trigger only schedules the next probe.
	r.p.ping(r.rep.Addr, r.seq+uint16(try), r.cfg.ListenFor,
		func(time.Duration) {
			if r.closed || r.answered {
				return
			}
			r.answered = true
			if try == 0 && r.sent == 1 {
				r.rep.AnsweredFast++
			} else {
				r.rep.AnsweredLate++
			}
		},
		func() {})
	if try < r.cfg.Retransmits {
		r.p.sched.After(r.cfg.RetransmitAfter, func() {
			r.probe(try + 1)
		})
	}
}

// AdaptiveConfig parameterizes the RTO-style adaptive monitor.
type AdaptiveConfig struct {
	Src      ipaddr.Addr
	Interval time.Duration
	Rounds   int
	// InitialRTO seeds the estimator before any sample (TCP uses 1 s; the
	// paper's tools used 2-3 s).
	InitialRTO time.Duration
	// MinRTO/MaxRTO clamp the computed timeout.
	MinRTO, MaxRTO time.Duration
	Retries        int
	Start          simnet.Time
}

func (c AdaptiveConfig) withDefaults() AdaptiveConfig {
	if c.Interval == 0 {
		c.Interval = 11 * time.Minute
	}
	if c.Rounds == 0 {
		c.Rounds = 6
	}
	if c.InitialRTO == 0 {
		c.InitialRTO = 3 * time.Second
	}
	if c.MinRTO == 0 {
		c.MinRTO = time.Second
	}
	if c.MaxRTO == 0 {
		c.MaxRTO = 60 * time.Second
	}
	if c.Retries == 0 {
		c.Retries = 3
	}
	return c
}

// rttEstimator is the Jacobson/Karels smoothed estimator.
type rttEstimator struct {
	srtt, rttvar time.Duration
	init         bool
}

// observe folds one RTT sample in (RFC 6298 constants).
func (e *rttEstimator) observe(rtt time.Duration) {
	if !e.init {
		e.srtt = rtt
		e.rttvar = rtt / 2
		e.init = true
		return
	}
	d := e.srtt - rtt
	if d < 0 {
		d = -d
	}
	e.rttvar = (3*e.rttvar + d) / 4
	e.srtt = (7*e.srtt + rtt) / 8
}

// rto returns SRTT + 4*RTTVAR, or 0 if uninitialized.
func (e *rttEstimator) rto() time.Duration {
	if !e.init {
		return 0
	}
	return e.srtt + 4*e.rttvar
}

// AdaptiveReport summarizes one host under the adaptive strategy.
type AdaptiveReport struct {
	Addr               ipaddr.Addr
	Probes, Losses     int
	Rounds, DownRounds int
	// FinalRTO is the estimator's timeout after the run.
	FinalRTO time.Duration
}

// MonitorAdaptive runs the per-target adaptive-RTO monitor and drains the
// scheduler.
func MonitorAdaptive(net *simnet.Network, cfg AdaptiveConfig, addrs []ipaddr.Addr) []AdaptiveReport {
	cfg = cfg.withDefaults()
	pr := newProber(net, cfg.Src)
	defer pr.close()
	reports := make([]AdaptiveReport, len(addrs))
	ests := make([]rttEstimator, len(addrs))
	sched := net.Scheduler()
	for i, a := range addrs {
		reports[i].Addr = a
		for round := 0; round < cfg.Rounds; round++ {
			i, round := i, round
			sched.At(cfg.Start+simnet.Time(round)*cfg.Interval, func() {
				ar := &adaptiveRound{p: pr, cfg: cfg, rep: &reports[i], est: &ests[i], seq: uint16(round * 16)}
				ar.attempt(0)
			})
		}
	}
	sched.Run()
	for i := range reports {
		reports[i].FinalRTO = clampRTO(cfg, ests[i].rto())
	}
	return reports
}

type adaptiveRound struct {
	p   *prober
	cfg AdaptiveConfig
	rep *AdaptiveReport
	est *rttEstimator
	seq uint16
}

func clampRTO(cfg AdaptiveConfig, rto time.Duration) time.Duration {
	if rto == 0 {
		rto = cfg.InitialRTO
	}
	if rto < cfg.MinRTO {
		rto = cfg.MinRTO
	}
	if rto > cfg.MaxRTO {
		rto = cfg.MaxRTO
	}
	return rto
}

func (a *adaptiveRound) attempt(try int) {
	if try == 0 {
		a.rep.Rounds++
	}
	// Exponential backoff on retransmission, as TCP does. Without it the
	// estimator can never learn an RTT larger than its own timeout (Karn's
	// problem): the response arrives after the timer, is discarded, and no
	// sample is ever taken.
	timeout := clampRTO(a.cfg, a.est.rto()<<uint(try))
	if try > 0 && a.est.rto() == 0 {
		timeout = clampRTO(a.cfg, a.cfg.InitialRTO<<uint(try))
	}
	a.rep.Probes++
	a.p.ping(a.rep.Addr, a.seq+uint16(try), timeout,
		a.est.observe,
		func() {
			a.rep.Losses++
			if try < a.cfg.Retries {
				a.p.sched.After(timeout, func() { a.attempt(try + 1) })
			} else {
				a.rep.DownRounds++
			}
		})
}
