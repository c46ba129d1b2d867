// Package timeouts is a from-scratch reproduction of "Timeouts: Beware
// Surprisingly High Delay" (Padmanabhan, Owen, Schulman, Spring; ACM IMC
// 2015) as a Go library: the ISI-style survey prober, Zmap-style stateless
// scanner and scamper-style prober the paper uses, the synthetic Internet
// population that stands in for the live 2015 IPv4 Internet, and the
// paper's analysis pipeline (delayed-response matching, broadcast/duplicate
// filtering, the minimum-timeout matrix, and the attribution studies).
//
// The package tree lives under internal/; entry points are the commands
// under cmd/ (notably cmd/reproduce, which regenerates every table and
// figure of the paper), the Example functions of internal/core,
// internal/outage, internal/scamper and internal/zmapper, whose printed
// output the tests check, and the benchmark suite in bench_test.go, which
// regenerates each experiment's data as a testing.B benchmark. See
// README.md, DESIGN.md and EXPERIMENTS.md.
package timeouts
