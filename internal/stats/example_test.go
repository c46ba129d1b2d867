package stats_test

import (
	"fmt"
	"time"

	"timeouts/internal/stats"
)

func ExamplePercentile() {
	samples := []time.Duration{
		120 * time.Millisecond,
		95 * time.Millisecond,
		2300 * time.Millisecond,
		140 * time.Millisecond,
		110 * time.Millisecond,
	}
	stats.SortDurations(samples)
	fmt.Println(stats.Percentile(samples, 50))
	fmt.Println(stats.Percentile(samples, 99))
	// Output:
	// 120ms
	// 2.3s
}

func ExampleBuildTimeoutMatrix() {
	// Three addresses: two fast, one cellular-slow. The matrix answers
	// "how long must I wait to capture c% of pings from r% of addresses".
	mk := func(median, tail time.Duration) stats.Quantiles {
		return stats.Quantiles{
			P1: median, P50: median, P80: median, P90: median,
			P95: tail, P98: tail, P99: tail,
		}
	}
	per := []stats.Quantiles{
		mk(100*time.Millisecond, 200*time.Millisecond),
		mk(120*time.Millisecond, 250*time.Millisecond),
		mk(1500*time.Millisecond, 8*time.Second),
	}
	m := stats.BuildTimeoutMatrix(per)
	fmt.Println("50/50:", m.At(50, 50))
	fmt.Println("99/99:", m.At(99, 99))
	// Output:
	// 50/50: 120ms
	// 99/99: 8s
}

func ExampleEWMA() {
	// The broadcast-responder filter's smoothing: persistent repetition
	// drives the average toward 1.
	e := stats.EWMA{Alpha: 0.5}
	e.Observe(0)
	for i := 0; i < 8; i++ {
		e.Observe(1)
	}
	fmt.Printf("%.3f\n", e.Value())
	// Output:
	// 0.996
}
