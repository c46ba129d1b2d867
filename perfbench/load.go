package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"sync"
	"time"

	"timeouts/internal/ipaddr"
	"timeouts/internal/netmodel"
)

// loadConns is the closed loop's client count: one keep-alive connection
// each, at most nproc on the 2-vCPU machines this benchmark targets.
const loadConns = 2

// requestMix is the advise workload's seeded request stream.
type requestMix struct {
	addrs []ipaddr.Addr
	paths []string // "/timeout?addr=..." for each address
}

// newRequestMix draws n addresses from the seed: nine in ten inside the
// /24s the survey probed (a random last octet), one in ten outside them,
// where the advisor answers with its population fallback.
func newRequestMix(seed uint64, blocks, n int) *requestMix {
	prefixes := netmodel.New(netmodel.Config{Seed: seed, Blocks: blocks}).Blocks()
	inSurvey := make(map[ipaddr.Prefix24]bool, len(prefixes))
	for _, p := range prefixes {
		inSurvey[p] = true
	}
	rng := rand.New(rand.NewPCG(seed, 0x6d6978)) // "mix"
	m := &requestMix{addrs: make([]ipaddr.Addr, n), paths: make([]string, n)}
	for i := range m.addrs {
		var a ipaddr.Addr
		if rng.IntN(10) < 9 {
			a = prefixes[rng.IntN(len(prefixes))].Addr(byte(rng.IntN(256)))
		} else {
			for a = ipaddr.Addr(rng.Uint32()); inSurvey[a.Prefix()]; a = ipaddr.Addr(rng.Uint32()) {
			}
		}
		m.addrs[i], m.paths[i] = a, "/timeout?addr="+a.String()
	}
	return m
}

// newClient is a keep-alive HTTP client holding one connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
	}
}

// waitHealthy polls /healthz until it reports "ok":true.
func waitHealthy(c *http.Client, base string, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		resp, err := c.Get(base + "/healthz")
		if err == nil {
			var h struct {
				OK bool `json:"ok"`
			}
			err = json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if err == nil && h.OK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not ready after %v (last error: %v)", limit, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// loadResult is one closed-loop load.
type loadResult struct {
	latency []time.Duration // every request, answered or not
	sent    int
	ok      int
	errs    []string // one per failed request
}

// closedLoop sends every path once over conns keep-alive connections; each
// connection sends its next request only after the previous answer has
// arrived, like probers that wait for their timeout advice. An answer
// passes when it is a 200 carrying timeout_ns > 0 and X-Advisor-Epoch.
func closedLoop(base string, paths []string, conns int) loadResult {
	results := make([]loadResult, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient()
			defer cl.CloseIdleConnections()
			r := &results[c]
			for i := c; i < len(paths); i += conns {
				start := time.Now()
				err := fetchAdvice(cl, base+paths[i])
				r.latency = append(r.latency, time.Since(start))
				r.sent++
				if err != nil {
					r.errs = append(r.errs, fmt.Sprintf("GET %s: %v", paths[i], err))
					continue
				}
				r.ok++
			}
		}(c)
	}
	wg.Wait()
	var all loadResult
	for _, r := range results {
		all.latency = append(all.latency, r.latency...)
		all.sent += r.sent
		all.ok += r.ok
		all.errs = append(all.errs, r.errs...)
	}
	return all
}

// fetchAdvice performs one GET /timeout and checks the answer.
func fetchAdvice(c *http.Client, url string) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Advisor-Epoch") == "" {
		return fmt.Errorf("no X-Advisor-Epoch header")
	}
	var a struct {
		TimeoutNS int64 `json:"timeout_ns"`
	}
	if err := json.Unmarshal(body, &a); err != nil {
		return err
	}
	if a.TimeoutNS <= 0 {
		return fmt.Errorf("timeout_ns %d", a.TimeoutNS)
	}
	return nil
}
