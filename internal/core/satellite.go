package core

import (
	"time"

	"timeouts/internal/ipaddr"
	"timeouts/internal/ipmeta"
)

// SatPoint is one address in Figure 11's scatter plot of 1st vs 99th
// percentile latency.
type SatPoint struct {
	Addr      ipaddr.Addr
	P1, P99   time.Duration
	AS        ipmeta.AS
	Satellite bool
}

// SatelliteScatter builds Figure 11's point set from per-address quantiles,
// keeping addresses with "high values of both" percentiles: 1st percentile
// above minP1. Points are split by whether the owning AS is satellite-only.
func SatelliteScatter(q []AddrQuantiles, db *ipmeta.DB, minP1 time.Duration) []SatPoint {
	var out []SatPoint
	for _, v := range q {
		if v.P1 < minP1 {
			continue
		}
		as, ok := db.Lookup(v.Addr)
		if !ok {
			continue
		}
		out = append(out, SatPoint{
			Addr: v.Addr, P1: v.P1, P99: v.P99, AS: as,
			Satellite: as.Type == ipmeta.Satellite,
		})
	}
	return out
}

// SatelliteSummary quantifies the paper's §6.1 findings about the scatter.
type SatelliteSummary struct {
	SatAddrs int
	// SatP1AboveHalf: fraction of satellite addresses with 1st percentile
	// above 500 ms (the paper: all of them — double the geosynchronous
	// theoretical minimum).
	SatP1AboveHalf float64
	// SatP99Below3s: fraction of satellite addresses whose 99th percentile
	// stays under 3 s (the paper: predominant).
	SatP99Below3s float64
	// NonSatAddrs and NonSatP99Above3s describe the non-satellite
	// high-base-latency addresses, which unlike satellites do develop
	// enormous 99th percentiles.
	NonSatAddrs      int
	NonSatP99Above3s float64
}

// SummarizeSatellites computes the summary over a scatter point set.
func SummarizeSatellites(pts []SatPoint) SatelliteSummary {
	var s SatelliteSummary
	var satHalf, satLow99, nonHigh99 int
	for _, p := range pts {
		if p.Satellite {
			s.SatAddrs++
			if p.P1 > 500*time.Millisecond {
				satHalf++
			}
			if p.P99 < 3*time.Second {
				satLow99++
			}
		} else {
			s.NonSatAddrs++
			if p.P99 > 3*time.Second {
				nonHigh99++
			}
		}
	}
	if s.SatAddrs > 0 {
		s.SatP1AboveHalf = float64(satHalf) / float64(s.SatAddrs)
		s.SatP99Below3s = float64(satLow99) / float64(s.SatAddrs)
	}
	if s.NonSatAddrs > 0 {
		s.NonSatP99Above3s = float64(nonHigh99) / float64(s.NonSatAddrs)
	}
	return s
}
