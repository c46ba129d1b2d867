// Package experiments regenerates every table and figure of the paper's
// evaluation against the synthetic population. Each experiment builds the
// measurement workload the paper describes (survey, Zmap scans, scamper
// probing), runs the analysis pipeline from internal/core, and reports the
// paper's number next to the measured one.
//
// A Lab memoizes the expensive shared inputs (the survey dataset, the Zmap
// scans) so that running all experiments — as cmd/reproduce and the
// benchmark suite do — pays for each workload once.
package experiments

import (
	"fmt"
	"sync"
	"time"

	"timeouts/internal/core"
	"timeouts/internal/ipaddr"
	"timeouts/internal/ipmeta"
	"timeouts/internal/netmodel"
	"timeouts/internal/obs"
	"timeouts/internal/simnet"
	"timeouts/internal/stats"
	"timeouts/internal/survey"
	"timeouts/internal/zmapper"
)

// Scale sets the size of the reproduction. The paper's own scale (24,000
// blocks surveyed for two weeks; 17 full-IPv4 scans) is far beyond a test
// run, so scales trade address-population size and probe counts against
// runtime while preserving every behavioral class.
type Scale struct {
	Seed         uint64
	Blocks       int // population size in /24 blocks
	SurveyCycles int // 11-minute rounds per survey
	ZmapScans    int // scans for the stability experiments (paper: 17)
	SampleAddrs  int // addresses per scamper experiment
	TrainPings   int // pings per train in the pattern study (paper: 2000)
}

// Quick is sized for unit tests: a few seconds end to end.
var Quick = Scale{Seed: 42, Blocks: 512, SurveyCycles: 12, ZmapScans: 3, SampleAddrs: 150, TrainPings: 900}

// Default is sized for cmd/reproduce and the benchmark suite: minutes.
var Default = Scale{Seed: 42, Blocks: 768, SurveyCycles: 40, ZmapScans: 6, SampleAddrs: 500, TrainPings: 1200}

// Full approaches the paper's relative depth (hours).
var Full = Scale{Seed: 42, Blocks: 1024, SurveyCycles: 130, ZmapScans: 17, SampleAddrs: 2000, TrainPings: 2000}

// Prober addresses for the non-survey tools, in reserved space.
var (
	zmapSrc    = ipaddr.MustParse("240.0.2.1")
	scamperSrc = ipaddr.MustParse("240.0.3.1")
	outageSrc  = ipaddr.MustParse("240.0.4.1")
)

// World bundles a population with a fresh event loop and network.
type World struct {
	Pop   *netmodel.Population
	Model *netmodel.Model
	Sched *simnet.Scheduler
	Net   *simnet.Network
}

// NewWorld builds a world for the given population config, with all survey
// vantages and tool probers registered.
func NewWorld(cfg netmodel.Config) *World {
	pop := netmodel.New(cfg)
	model := netmodel.NewModel(pop)
	sched := &simnet.Scheduler{}
	net := simnet.NewNetwork(sched, model)
	for _, v := range survey.Vantages {
		model.AddVantage(v.Addr, v.Continent)
	}
	model.AddVantage(zmapSrc, ipmeta.NorthAmerica)
	model.AddVantage(scamperSrc, ipmeta.NorthAmerica)
	model.AddVantage(outageSrc, ipmeta.NorthAmerica)
	return &World{Pop: pop, Model: model, Sched: sched, Net: net}
}

// Lab memoizes the shared workloads for one scale.
type Lab struct {
	Scale Scale

	// Parallel, when > 1, runs the survey and Zmap workloads on the
	// sharded parallel engine with that many shards (zmapper.RunSharded,
	// survey.RunSharded). The survey's ordered merge makes the dataset
	// byte-identical to the sequential run, and sharded scan reports merge
	// into exactly the one-shard report, so every experiment in the
	// registry works unchanged either way — parallelism is purely an
	// execution-speed opt-in (cmd/reproduce's -parallel flag).
	Parallel int

	// Obs, when non-nil, collects metrics from every workload the lab runs:
	// the survey, the Zmap scans, and the matcher all register their
	// counters and histograms here. Sharded runs merge per-shard registries
	// into Obs with the same order-independent discipline as the dataset
	// merge, so the deterministic snapshot is identical whatever Parallel
	// is.
	Obs *obs.Registry

	// Trace, when non-nil, receives sim-time phase spans from the workloads
	// and is available for callers to add wall-clock spans of their own
	// (cmd/reproduce wraps each experiment in one).
	Trace *obs.Tracer

	mu          sync.Mutex
	surveyRecs  []survey.Record
	surveyStats survey.Stats
	match       *core.Result
	scans       []*zmapper.Scan
	popCfg      netmodel.Config
}

// NewLab creates a lab at the given scale.
func NewLab(s Scale) *Lab {
	return &Lab{Scale: s, popCfg: netmodel.Config{Seed: s.Seed, Blocks: s.Blocks}}
}

// ShardFabric returns a per-shard fabric factory over a shared population:
// each shard gets its own Model (mutable radio state and stats stay
// shard-local) with every vantage registered, while the immutable
// Population is shared and read concurrently.
func ShardFabric(pop *netmodel.Population) func(int) simnet.Fabric {
	return func(int) simnet.Fabric {
		model := netmodel.NewModel(pop)
		for _, v := range survey.Vantages {
			model.AddVantage(v.Addr, v.Continent)
		}
		model.AddVantage(zmapSrc, ipmeta.NorthAmerica)
		model.AddVantage(scamperSrc, ipmeta.NorthAmerica)
		model.AddVantage(outageSrc, ipmeta.NorthAmerica)
		return model
	}
}

// Survey returns the lab's memoized survey dataset (records and stats),
// running the survey on first use.
func (l *Lab) Survey() ([]survey.Record, survey.Stats, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.surveyRecs == nil {
		var (
			mem survey.MemWriter
			st  survey.Stats
			err error
		)
		cfg := survey.Config{
			Vantage: survey.VantageW,
			Cycles:  l.Scale.SurveyCycles,
			Seed:    l.Scale.Seed,
			Obs:     l.Obs,
			Trace:   l.Trace,
		}
		if l.Parallel > 1 {
			pop := netmodel.New(l.popCfg)
			cfg.Blocks = pop.Blocks()
			st, err = survey.RunSharded(cfg, l.Parallel, ShardFabric(pop), &mem)
		} else {
			w := NewWorld(l.popCfg)
			cfg.Blocks = w.Pop.Blocks()
			st, err = survey.Run(w.Net, cfg, &mem)
		}
		if err != nil {
			return nil, survey.Stats{}, fmt.Errorf("experiments: survey failed: %w", err)
		}
		l.surveyRecs, l.surveyStats = mem.Records, st
	}
	return l.surveyRecs, l.surveyStats, nil
}

// Match returns the memoized matching/filtering result over the survey,
// registering the matcher's metrics on Obs. It fails if any address's
// records break emission order, which a survey never does.
func (l *Lab) Match() (*core.Result, error) {
	recs, _, err := l.Survey()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.match == nil {
		m := core.NewStreamMatcher(core.MatchOptionsForCycles(l.Scale.SurveyCycles))
		m.SetObserver(l.Obs)
		for _, rec := range recs {
			m.Observe(rec)
		}
		res := m.Finalize()
		if res.OutOfOrder > 0 {
			return nil, fmt.Errorf("experiments: %d addresses' survey records are out of emission order", res.OutOfOrder)
		}
		l.match = res
	}
	return l.match, nil
}

// Quantiles returns the per-address percentile vectors over the filtered,
// combined (survey + delayed) samples, in ascending address order: the
// match result's AddressQuantiles(true), built once.
func (l *Lab) Quantiles() ([]core.AddrQuantiles, error) {
	m, err := l.Match()
	if err != nil {
		return nil, err
	}
	return m.AddressQuantiles(true), nil
}

// Scans returns at least n memoized Zmap scan reports, started days apart
// at varying times of day like the paper's Table 3 schedule.
func (l *Lab) Scans(n int) ([]*zmapper.Scan, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.scans) < n {
		pop := netmodel.New(l.popCfg)
		sc, err := zmapper.RunSharded(l.scanConfig(len(l.scans), pop), l.Parallel, ShardFabric(pop))
		if err != nil {
			return nil, fmt.Errorf("experiments: zmap scan failed: %w", err)
		}
		l.scans = append(l.scans, sc)
	}
	return l.scans[:n], nil
}

// scanConfig is the config of the lab's i-th Zmap scan over pop: scans a
// week apart, at alternating start hours (12:07, 02:44, ...).
func (l *Lab) scanConfig(i int, pop *netmodel.Population) zmapper.Config {
	startHour := []float64{12.1, 2.7, 12.1, 13.9, 0.95, 12.0}[i%6]
	return zmapper.Config{
		Src:       zmapSrc,
		Continent: ipmeta.NorthAmerica,
		TargetN:   pop.NumAddrs(),
		TargetAt:  pop.AddrAt,
		Duration:  90 * time.Minute,
		Start:     simnet.Time(float64(i*7)*24*float64(time.Hour) + startHour*float64(time.Hour)),
		Seed:      l.Scale.Seed + uint64(i)*1000003,
		Obs:       l.Obs,
		Trace:     l.Trace,
	}
}

// DB builds the metadata database for the lab's population.
func (l *Lab) DB() *ipmeta.DB {
	return netmodel.New(l.popCfg).DB()
}

// Metric is one paper-vs-measured comparison line.
type Metric struct {
	Name     string
	Paper    string
	Measured string
}

// Report is an experiment's output.
type Report struct {
	ID      string
	Title   string
	Body    string
	Metrics []Metric
}

// Format renders the report for the terminal.
func (r Report) Format() string {
	s := fmt.Sprintf("== %s: %s ==\n%s", r.ID, r.Title, r.Body)
	if len(r.Metrics) > 0 {
		s += "\n--- paper vs measured ---\n"
		for _, m := range r.Metrics {
			s += fmt.Sprintf("  %-52s paper: %-18s measured: %s\n", m.Name, m.Paper, m.Measured)
		}
	}
	return s
}

// fmtDur renders a duration in seconds like the paper's tables.
func fmtDur(d time.Duration) string { return stats.FormatDurSeconds(d) + "s" }

// fmtPct renders a fraction as a percentage.
func fmtPct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }
