// Command advisord is the long-running timeout-advice service: it ingests a
// survey dataset, builds per-/24 latency sketches, and serves timeout
// recommendations over HTTP/JSON:
//
//	GET /timeout?addr=X[&capture=p][&coverage=r]  one recommendation
//	GET /healthz                                  state + epoch + snapshot age + ingest lag
//	GET /snapshot                                 full advice dump
//	GET /metrics                                  Prometheus 0.0.4 text exposition
//
// Usage:
//
//	advisord -i survey.tosv [-listen :8080] [-seed 42]
//	advisord -checkpoint-dir DIR   # recover and serve, no ingest needed
//	         [-checkpoint-keep N] [-checkpoint-every RECORDS]
//	         [-stale-after D]
//	         [-max-inflight N] [-retry-after D] [-request-timeout D]
//	         [-drain-timeout D] [-max-skip N]
//	         [-access-log FILE] [-log-sample N]
//	         [-self-slo D] [-watchdog-interval D]
//	         [-metrics FILE] [-trace FILE] [-manifest FILE] [-debug-addr ADDR]
//
// With -i, the dataset is streamed through the advisor's resilient ingest
// loop (delayed responses recovered by core's §3.3 attribution kernel, which
// the store drives record by record; corrupt records counted and skipped) —
// memory stays proportional to the number of /24 prefixes, not records.
//
// With -checkpoint-dir, the store is checkpointed durably (temp file +
// atomic rename, newest -checkpoint-keep generations retained) and recovered
// on startup from the newest valid generation; a recovered advisord serves
// the checkpointed advice immediately, before — or entirely without — fresh
// ingest. The listener binds and /healthz answers from the start (reporting
// "recovering" until advice is published); advice routes shed load beyond
// -max-inflight with 503 + Retry-After; SIGTERM/SIGINT drains gracefully:
// stop accepting, finish in-flight requests, write a final checkpoint,
// exit 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"timeouts/internal/advisor"
	"timeouts/internal/obs"
	"timeouts/internal/survey"
)

func main() {
	var (
		in     = flag.String("i", "", "survey dataset to ingest (any format cmd/analyze reads)")
		listen = flag.String("listen", ":8080", "HTTP listen address")
		seed   = flag.Uint64("seed", 42, "ingest retry backoff jitter")

		ckptDir      = flag.String("checkpoint-dir", "", "durable checkpoint directory (recovery source and save target)")
		ckptKeep     = flag.Int("checkpoint-keep", 3, "checkpoint generations to retain")
		ckptEvery    = flag.Uint64("checkpoint-every", 1<<20, "checkpoint every N ingested records (0 = only on completion and drain)")
		staleAfter   = flag.Duration("stale-after", 0, "per-prefix staleness TTL: older prefixes degrade to the population fallback (0 disables)")
		maxInflight  = flag.Int("max-inflight", 256, "max concurrent advice requests before shedding with 503")
		retryAfter   = flag.Duration("retry-after", time.Second, "Retry-After hint sent with shed responses")
		reqTimeout   = flag.Duration("request-timeout", 5*time.Second, "per-request handling deadline")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "max wait for in-flight requests on shutdown")
		maxSkip      = flag.Uint64("max-skip", 0, "corrupt-record budget for -i ingest (0 = unlimited)")

		accessLog  = flag.String("access-log", "", "write sampled JSONL access logs to this file (\"-\" for stderr)")
		logSample  = flag.Int("log-sample", 100, "log 1 in every N requests (1 = all)")
		selfSLO    = flag.Duration("self-slo", 0, "self-watchdog p99 latency budget; breaches count in advisor.self.timeout_breach (0 disables breach counting)")
		wdInterval = flag.Duration("watchdog-interval", 10*time.Second, "self-watchdog sampling interval")
	)
	cli := obs.RegisterCLI()
	flag.Parse()
	if err := cli.Init(); err != nil {
		fail(err)
	}

	// The serving registry is always on: /metrics must answer whether or not
	// any -metrics/-trace/-debug-addr flag was set. When the obs CLI did
	// activate, share its registry so file outputs and /metrics agree.
	reg := cli.Reg
	if reg == nil {
		reg = obs.NewRegistry()
	}

	var ck *advisor.Checkpointer
	if *ckptDir != "" {
		ck = &advisor.Checkpointer{Dir: *ckptDir, Keep: *ckptKeep}
		ck.SetObserver(reg)
	}

	adv := advisor.New()
	adv.SetObserver(reg)
	adv.SetTTL(*staleAfter)

	// Recovery: newest valid generation wins; torn or corrupt ones are
	// skipped. A recovered store serves immediately at its original epoch.
	st := advisor.NewStore()
	recovered := false
	if ck != nil {
		rst, epoch, rs, err := ck.Load()
		if err != nil {
			fail(err)
		}
		if rs.Skipped > 0 {
			fmt.Fprintf(os.Stderr, "advisord: recovery skipped %d invalid checkpoint generation(s): %v\n",
				rs.Skipped, rs.SkippedNames)
		}
		if rst != nil {
			st = rst
			recovered = true
			snap := adv.Restore(st, epoch)
			fmt.Printf("recovered checkpoint epoch %d: %d prefixes, %d samples, age %v\n",
				epoch, snap.Prefixes(), snap.Samples(),
				advisor.CheckpointAge(st, time.Now().UnixNano()).Round(time.Second))
		}
	}
	st.SetObserver(reg)

	if *in == "" && !recovered {
		fmt.Fprintln(os.Stderr, "advisord: need -i DATASET or a recoverable -checkpoint-dir (see -h)")
		os.Exit(2)
	}

	// Bind and serve before ingest: /healthz answers (and reports
	// "recovering") from the first moment the address is printed, and a
	// recovered advisord answers advice queries while fresh ingest runs.
	gate := advisor.NewGate(*maxInflight, *retryAfter)
	gate.SetObserver(reg)
	if !recovered {
		gate.SetState(advisor.GateRecovering)
	}

	// Telemetry plane: per-route serve histograms, sampled access logging,
	// the self-watchdog, and a /metrics exposition that folds in every
	// scrape-time collector the daemon owns. /metrics and /healthz sit
	// outside the gate — they must answer precisely while the gate sheds.
	serveMetrics := advisor.NewServeMetrics(reg)
	if *accessLog != "" {
		out := os.Stderr
		if *accessLog != "-" {
			f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				fail(err)
			}
			defer f.Close()
			out = f
		}
		serveMetrics.SetAccessLogger(advisor.NewAccessLogger(out, *logSample))
	}
	progress := &advisor.IngestProgress{}
	watchdog := advisor.NewWatchdog(serveMetrics, reg, *selfSLO, *wdInterval)
	promH := obs.PromHandler(reg, obs.NewRuntimeCollector(), adv, progress, ck, watchdog)
	for _, c := range []obs.PromCollector{adv, progress, ck, watchdog} {
		cli.Debug.RegisterProm(c) // -debug-addr's /metrics shows the same series
	}

	// Catch signals before the address is printed: from then on a signal
	// means drain, not the default exit.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fail(err)
	}
	fmt.Printf("serving on %s\n", ln.Addr())

	go watchdog.Run(ctx)
	serverDone := make(chan error, 1)
	go func() {
		serverDone <- advisor.RunServer(ctx, advisor.ServerConfig{
			Listener: ln,
			Handler: advisor.NewHandler(adv,
				advisor.WithGate(gate),
				advisor.WithRequestTimeout(*reqTimeout),
				advisor.WithServeMetrics(serveMetrics),
				advisor.WithMetrics(promH),
				advisor.WithIngestProgress(progress),
				advisor.WithCheckpointer(ck)),
			Gate:         gate,
			DrainTimeout: *drainTimeout,
		})
	}()

	if *in != "" {
		start := time.Now()
		var f *os.File
		stats, err := advisor.RunIngest(ctx, advisor.IngestConfig{
			Open: func() (survey.RecordSource, error) {
				if f != nil {
					f.Close()
				}
				var err error
				if f, err = os.Open(*in); err != nil {
					return nil, err
				}
				src, _, err := survey.OpenSourceLenient(f)
				return src, err
			},
			Seed:            *seed,
			CheckpointEvery: *ckptEvery,
			MaxSkip:         *maxSkip,
			Progress:        progress,
			Obs:             reg,
			Trace:           cli.Tracer,
		}, st, adv, ck)
		if f != nil {
			f.Close()
		}
		advisor.RegisterIngestObs(reg, stats)
		if err != nil {
			fail(err)
		}
		fmt.Printf("ingested %d records (%d skipped) from %s in %v\n",
			stats.Records, stats.Skipped, *in, time.Since(start).Round(time.Millisecond))
	}

	if snap := adv.Current(); snap != nil {
		fmt.Printf("advice: %d prefixes, %d samples, epoch %d\n",
			snap.Prefixes(), snap.Samples(), snap.Epoch())
		// After a signal RunServer drains: the gate stays shut, and a
		// signal landing between this check and SetState cannot reopen
		// it, since the gate keeps a drain once begun.
		if ctx.Err() == nil {
			gate.SetState(advisor.GateServing)
		}
	}

	if err := cli.Finish("advisord", *seed, 1, nil); err != nil {
		fail(err)
	}

	// Serve until a signal. The store is quiescent now (ingest done), so
	// nothing changes until the final checkpoint. RunServer returns once a
	// signal's drain has finished, or earlier if the listener fails.
	err = <-serverDone
	if ctx.Err() == nil {
		if err != nil {
			fail(err)
		}
		return // listener gone without a signal: nothing left to do
	}

	// Graceful drain: RunServer flipped the gate to draining and finished
	// in-flight requests; close the debug plane too (its listener must not
	// outlive the serve plane), write the final checkpoint, and exit 0 — the
	// SIGTERM contract, however early in ingest the signal came.
	if err != nil {
		fmt.Fprintln(os.Stderr, "advisord: drain:", err)
	}
	if err := cli.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "advisord: debug server:", err)
	}
	if ck != nil {
		epoch := uint64(0)
		if snap := adv.Current(); snap != nil {
			epoch = snap.Epoch()
		}
		if _, err := ck.Save(st, epoch); err != nil {
			fail(err)
		}
		fmt.Println("drained; final checkpoint written")
		return
	}
	fmt.Println("drained")
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "advisord:", err)
	os.Exit(1)
}
