package netmodel

import (
	"math"

	"timeouts/internal/xrand"
)

// The model's time-varying pathologies are "episodes": intervals during
// which a host's link is congested, or its connectivity is interrupted and
// its inbound packets are buffered or lost. Episodes are derived lazily and
// statelessly: time is divided into fixed windows, and a hash of (seed,
// address, salt, window-index) decides whether a window contains an episode
// and with what parameters. Any probe can therefore be answered in O(1)
// without simulating the host between probes, and — crucially for the
// paper's §4.2 observation that a retried ping is *not* an independent
// latency sample — probes close together in time land in the same episode
// and see correlated delay.

// congestion episode windows are two hours long.
const congWindow = 7200

// sleepy (buffered-outage) windows are two hours long as well.
const sleepyWindow = 7200

// episode describes one active episode interval.
type episode struct {
	start, end float64
	rng        xrand.Rand // parameter stream, deterministic per episode
}

// episodeStream is the key that turns a window's draw into its episode's
// parameter stream.
const episodeStream = 0xE9150DE

// findEpisode reports whether an episode of the given kind covers time t
// for the host whose address hash is h. prob is the per-window probability
// of an episode; durMin/durMax bound its duration.
func findEpisode(h, salt uint64, t, window, prob, durMin, durMax float64) (episode, bool) {
	if prob <= 0 {
		return episode{}, false
	}
	// A long episode may spill past its window edge; check the previous
	// window too so probes just after a boundary still see it.
	for _, idx := range [2]int64{int64(t / window), int64(t/window) - 1} {
		if idx < 0 {
			continue
		}
		hw := xrand.Extend(h, salt, uint64(idx))
		if xrand.Float01(hw) >= prob {
			continue
		}
		rng := xrand.FromHash(xrand.Extend(hw, episodeStream))
		dur := durMin + (durMax-durMin)*rng.Float64()
		start := float64(idx)*window + rng.Float64()*(window-durMin)
		if t >= start && t < start+dur {
			return episode{start: start, end: start + dur, rng: rng}, true
		}
	}
	return episode{}, false
}

// envelope shapes congestion intensity across an episode: ramps up, peaks
// mid-episode, drains. Probes a few seconds apart see nearly the same
// envelope value — this is what correlates retried probes.
func (e episode) envelope(t float64) float64 {
	span := e.end - e.start
	if span <= 0 {
		return 0
	}
	x := (t - e.start) / span
	return math.Sin(math.Pi * x)
}

// congestion parameters per class: per-window episode probability, and the
// lognormal intensity scale (median seconds, sigma) with a hard cap.
type congParams struct {
	prob           float64
	medianS, sigma float64
	capS           float64
}

func (p *Population) congParamsFor(pr *Profile, level float64) congParams {
	switch pr.Class {
	case ClassServer:
		return congParams{prob: 0.01, medianS: 0.05, sigma: 0.6, capS: 0.4}
	case ClassQuiet:
		return congParams{prob: 0.02 + 0.05*level, medianS: 0.15, sigma: 0.8, capS: 1.5}
	case ClassDSL:
		return congParams{prob: 0.10 + 0.25*level + 0.15*pr.Severity, medianS: 0.35, sigma: 1.0, capS: 4}
	case ClassCongested:
		return congParams{prob: 0.45 + 0.4*pr.Severity, medianS: 1.8, sigma: 1.2, capS: 60}
	case ClassCellular:
		return congParams{prob: 0.35 + 0.35*pr.Severity, medianS: 1.6, sigma: 1.2, capS: 120}
	case ClassSatellite:
		return congParams{prob: 0.25, medianS: 0.30, sigma: 0.7, capS: pr.SatQueueCap}
	}
	return congParams{}
}

// congestionDelay returns the queueing delay a probe at time t experiences
// from busy-period congestion: a small always-on diurnal component plus
// episode bursts.
func (p *Population) congestionDelay(pr *Profile, level float64, t float64) float64 {
	// Always-on queueing, modulated diurnally (peak at local evening; the
	// phase is approximated from the host continent's longitude offset).
	var qmean float64
	switch pr.Class {
	case ClassServer:
		qmean = 0.0008
	case ClassQuiet:
		qmean = 0.012
	case ClassDSL:
		qmean = 0.05
	case ClassCongested:
		qmean = 0.22
	case ClassCellular:
		qmean = 0.13
	case ClassSatellite:
		qmean = 0.06
	}
	diurnal := 0.55 + 0.9*humpOfDay(t, continentPhase[pr.AS.Continent])
	rng := xrand.FromHash(xrand.Extend(pr.h, saltSvc, usOf(t)))
	delay := rng.Exp(qmean * diurnal * (0.5 + pr.Severity))

	cp := p.congParamsFor(pr, level)
	if ep, ok := findEpisode(pr.h, saltCong, t, congWindow, cp.prob, 60, 1800); ok {
		intensity := cp.medianS * math.Exp(cp.sigma*ep.rng.Norm())
		d := intensity * (0.25 + 0.75*ep.envelope(t)) * (0.6 + 0.8*rng.Float64())
		if d > cp.capS {
			d = cp.capS
		}
		delay += d
	}
	if pr.Class == ClassSatellite && delay > pr.SatQueueCap {
		delay = pr.SatQueueCap
	}
	return delay
}

// humpOfDay returns a 0..1 busy-hour factor for time-of-day, shifted by
// phase hours.
func humpOfDay(t, phaseHours float64) float64 {
	const day = 86400
	tod := math.Mod(t+phaseHours*3600, day) / day // 0..1
	s := math.Sin(math.Pi * tod)
	return s * s
}

// continentPhase approximates each continent's longitude as an hour offset
// so busy hours differ by region.
var continentPhase = [...]float64{
	// SA, Asia, Europe, Africa, NA, Oceania
	-4, 8, 1, 2, -7, 10,
}

// SleepyMode classifies a buffered-outage episode, mirroring the latency
// patterns of Table 7.
type SleepyMode uint8

// Sleepy episode modes.
const (
	// SleepyBuffered: the link drops for a while and the network buffers
	// inbound probes, flushing them all when connectivity returns — the
	// paper's "decay" patterns, where successive responses arrive together
	// and measured RTTs fall by exactly the probe spacing.
	SleepyBuffered SleepyMode = iota
	// SleepySustained: minutes of very high latency with loss — the
	// paper's "sustained high latency and loss".
	SleepySustained
	// SleepyBlackout: probes are lost outright, except an occasional one
	// that straggles through enormously late — "high latency between loss".
	SleepyBlackout
)

// sleepyEvent describes the fate of one probe inside a sleepy episode.
type sleepyEvent struct {
	mode  SleepyMode
	lost  bool
	delay float64 // extra delay before the response leaves the host side
}

// sleepyProb returns the per-window probability of a buffered-outage
// episode for the profile.
func (p *Population) sleepyProb(pr *Profile) float64 {
	var base float64
	switch pr.Class {
	case ClassCellular:
		// Severity-skewed: the worst cellular hosts spend percent-level
		// time unreachable-but-buffered; this is the population behind the
		// paper's 99th-percentile-row timeouts of 76–145 s.
		s := pr.Severity
		base = 0.15 + 1.7*s*s*s
	case ClassCongested:
		base = 0.02 + 0.08*pr.Severity*pr.Severity
	default:
		return 0
	}
	return base * p.sleepMul
}

// findSleepyEpisode locates a buffered-outage episode covering t, drawing
// the mode first so each mode can have its own duration range: buffered
// flushes last 40-520 s, sustained congestion runs for minutes (the paper's
// sustained events hold most of the >100 s pings), blackouts are shorter.
func findSleepyEpisode(h uint64, t, prob float64) (episode, SleepyMode, bool) {
	for _, idx := range [2]int64{int64(t / sleepyWindow), int64(t/sleepyWindow) - 1} {
		if idx < 0 {
			continue
		}
		hw := xrand.Extend(h, saltSleepy, uint64(idx))
		if xrand.Float01(hw) >= prob {
			continue
		}
		rng := xrand.FromHash(xrand.Extend(hw, episodeStream))
		m := rng.Float64()
		var mode SleepyMode
		var durMin, durMax float64
		switch {
		case m < 0.72:
			// Short connectivity gaps with buffered flushes are by far the
			// most common event class (Table 7: 94 of 127 events).
			mode, durMin, durMax = SleepyBuffered, 80, 280
		case m < 0.82:
			// Sustained oversubscription episodes are rare but long, so
			// they hold the majority of >100 s pings (2994 of 5149).
			mode, durMin, durMax = SleepySustained, 540, 900
		default:
			mode, durMin, durMax = SleepyBlackout, 60, 300
		}
		dur := durMin + (durMax-durMin)*rng.Float64()
		start := float64(idx)*sleepyWindow + rng.Float64()*(sleepyWindow-durMin)
		if t >= start && t < start+dur {
			return episode{start: start, end: start + dur, rng: rng}, mode, true
		}
	}
	return episode{}, 0, false
}

// sleepyAt reports how a probe at time t is treated if a sleepy episode
// covers t.
func (p *Population) sleepyAt(pr *Profile, t float64) (sleepyEvent, bool) {
	prob := p.sleepyProb(pr)
	if prob <= 0 {
		return sleepyEvent{}, false
	}
	ep, mode, ok := findSleepyEpisode(pr.h, t, prob)
	if !ok {
		return sleepyEvent{}, false
	}
	ev := sleepyEvent{mode: mode}
	perProbe := xrand.FromHash(xrand.Extend(pr.h, saltSleepy, usOf(t), 0x50B))
	switch mode {
	case SleepyBuffered:
		// Some episodes lose a leading fraction of probes before the
		// buffer engages ("loss, then decay"); others buffer from the
		// start ("low latency, then decay").
		lead := 0.0
		if ep.rng.Float64() < 0.85 {
			lead = 0.05 + 0.45*ep.rng.Float64()
		}
		bufStart := ep.start + lead*(ep.end-ep.start)
		if t < bufStart {
			ev.lost = true
		} else {
			ev.delay = ep.end - t + 0.05*perProbe.Float64()
		}
	case SleepySustained:
		if perProbe.Float64() < 0.38 {
			ev.lost = true
		} else {
			d := 25 + perProbe.Pareto(25, 0.8)
			if d > 380 {
				d = 380
			}
			ev.delay = d
		}
	case SleepyBlackout:
		if perProbe.Float64() < 0.95 {
			ev.lost = true
		} else {
			ev.delay = (ep.end - t) * (0.7 + 0.3*perProbe.Float64())
			if ev.delay > 110 && ev.delay < 130 {
				ev.delay += 30 // keep the stragglers clearly above 100 s
			}
		}
	}
	return ev, true
}

// wake draws the radio wake-up delay for a cellular host. Across the
// population it is lognormal with median ~1.4 s, 90% below 4 s, ~2% above
// 8.5 s (Figure 13), clamped to [0.3 s, 55 s]. Part of the spread is a
// *per-host* characteristic (device model, radio technology), which is what
// keeps the same addresses slow in scan after scan (Figure 7's stability);
// the rest is per-wake jitter. h is the host's address hash.
func drawWake(h uint64, t float64) float64 {
	hw := xrand.Extend(h, saltWake)
	hostMu := 0.20 + 0.9*(xrand.Float01(hw)-0.5)
	rng := xrand.FromHash(xrand.Extend(hw, usOf(t)))
	w := math.Exp(hostMu + 0.75*rng.Norm())
	if w < 0.3 {
		w = 0.3
	}
	if w > 55 {
		w = 55
	}
	return w
}
