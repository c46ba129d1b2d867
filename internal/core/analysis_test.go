package core

import (
	"strings"
	"testing"
	"time"

	"timeouts/internal/ipaddr"
	"timeouts/internal/ipmeta"
	"timeouts/internal/stats"
)

// train builds a TrainSample sequence from RTT milliseconds; -1 means lost.
// Probes are spaced 1 s apart.
func train(rttsMS ...int) []TrainSample {
	out := make([]TrainSample, len(rttsMS))
	for i, ms := range rttsMS {
		out[i] = TrainSample{
			Seq:    i,
			SentAt: time.Duration(i) * time.Second,
		}
		if ms >= 0 {
			out[i].Responded = true
			out[i].RTT = time.Duration(ms) * time.Millisecond
		}
	}
	return out
}

func TestClassifyTrainFirstAboveMax(t *testing.T) {
	// First ping 2.5s, rest ~200-400ms.
	tr := train(2500, 300, 250, 400, 220, 210, 350, 260, 270, 240)
	if got := ClassifyTrain(tr); got != FirstAboveMax {
		t.Errorf("got %v", got)
	}
}

func TestClassifyTrainFirstAboveMedian(t *testing.T) {
	// First above median of rest but not above max.
	tr := train(500, 300, 250, 900, 220, 210, 350, 260, 270, 240)
	if got := ClassifyTrain(tr); got != FirstAboveMedian {
		t.Errorf("got %v", got)
	}
}

func TestClassifyTrainFirstBelowMedian(t *testing.T) {
	tr := train(200, 300, 250, 900, 220, 210, 350, 260, 270, 240)
	if got := ClassifyTrain(tr); got != FirstBelowMedian {
		t.Errorf("got %v", got)
	}
}

func TestClassifyTrainNoFirstResponse(t *testing.T) {
	tr := train(-1, 300, 250, 400, 220)
	if got := ClassifyTrain(tr); got != NoFirstResponse {
		t.Errorf("got %v", got)
	}
	if got := ClassifyTrain(nil); got != NoFirstResponse {
		t.Errorf("empty train: got %v", got)
	}
}

func TestClassifyTrainTooFew(t *testing.T) {
	tr := train(300, -1, -1, 400, -1, -1, -1, -1, -1, -1)
	if got := ClassifyTrain(tr); got != TooFewResponses {
		t.Errorf("got %v", got)
	}
}

func TestAnalyzeFirstPing(t *testing.T) {
	a1 := ipaddr.MustParse("1.0.0.1") // wake-up: first 2.2s, rest ~200ms
	a2 := ipaddr.MustParse("1.0.0.2") // no penalty
	a3 := ipaddr.MustParse("1.0.1.3") // wake-up, different /24
	trains := map[ipaddr.Addr][]TrainSample{
		a1: train(2200, 1200, 210, 220, 230, 200, 240, 250, 260, 200),
		a2: train(210, 200, 230, 220, 250, 240, 260, 200, 210, 220),
		a3: train(3200, 2200, 220, 210, 250, 230, 240, 260, 200, 210),
	}
	fa := AnalyzeFirstPing(trains)
	if fa.Counts[FirstAboveMax] != 2 {
		t.Errorf("FirstAboveMax = %d", fa.Counts[FirstAboveMax])
	}
	if got := fa.FracAboveMax(); got < 0.6 || got > 0.7 {
		t.Errorf("FracAboveMax = %v, want 2/3", got)
	}
	// RTT1-RTT2 for the wake-up addresses is the probe spacing.
	for _, d := range fa.Delta12AboveMax {
		if d != time.Second {
			t.Errorf("delta12 = %v, want 1s", d)
		}
	}
	// Wake estimate: RTT1 - min(rest) = 2.2s-200ms = 2s (a1), 3s (a3).
	if len(fa.WakeEstimates) != 2 {
		t.Fatalf("wake estimates = %v", fa.WakeEstimates)
	}
	// Prefix clustering: a1+a2 share a /24 (50% above-max), a3 alone (100%).
	p1 := fa.PrefixShare[a1.Prefix()]
	if p1.Classified != 2 || p1.AboveMax != 1 {
		t.Errorf("prefix share = %+v", p1)
	}
	p3 := fa.PrefixShare[a3.Prefix()]
	if p3.Share() != 1.0 {
		t.Errorf("a3 prefix share = %v", p3.Share())
	}
}

func TestDropProbability(t *testing.T) {
	trains := map[ipaddr.Addr][]TrainSample{}
	// 10 wake-up addresses with exactly 1s drop, 10 flat addresses.
	for i := 0; i < 10; i++ {
		a := ipaddr.Addr(0x01000000 + uint32(i))
		trains[a] = train(2200, 1200, 210, 220, 230, 200, 240, 250, 260, 200)
		b := ipaddr.Addr(0x01000100 + uint32(i))
		trains[b] = train(210, 205, 230, 220, 250, 240, 260, 200, 210, 220)
	}
	fa := AnalyzeFirstPing(trains)
	pts := fa.DropProbability(200*time.Millisecond, 0, 1400*time.Millisecond)
	// The 1s-drop bin must show probability 1; the ~0 bin probability 0.
	var sawHigh, sawLow bool
	for _, pt := range pts {
		if pt.Delta == time.Second && pt.P == 1 {
			sawHigh = true
		}
		if pt.Delta == 0 && pt.P == 0 {
			sawLow = true
		}
	}
	if !sawHigh || !sawLow {
		t.Errorf("drop probability bins wrong: %+v", pts)
	}
}

// decayTrain builds the signature Table 7 "decay" shape: after `lead`
// context, responses arrive together so RTTs fall by the spacing.
func decayTrain(n int, flushAt time.Duration, start int) []TrainSample {
	out := make([]TrainSample, n)
	for i := range out {
		sent := time.Duration(i) * time.Second
		out[i] = TrainSample{Seq: i, SentAt: sent}
		switch {
		case i < start:
			out[i].Responded = true
			out[i].RTT = 200 * time.Millisecond
		case sent < flushAt:
			out[i].Responded = true
			out[i].RTT = flushAt - sent
		default:
			out[i].Responded = true
			out[i].RTT = 200 * time.Millisecond
		}
	}
	return out
}

func TestPatternLowLatencyThenDecay(t *testing.T) {
	// Normal pings, then buffering until t=160s: RTTs decay 150s,149s,...
	tr := decayTrain(200, 160*time.Second, 10)
	pc := ClassifyHighLatency(map[ipaddr.Addr][]TrainSample{1: tr}, 100*time.Second, time.Second)
	if pc.Events[PatternLowLatencyDecay] != 1 {
		t.Errorf("events = %+v", pc.Events)
	}
	if pc.Pings[PatternLowLatencyDecay] == 0 {
		t.Error("no >100s pings counted")
	}
}

func TestPatternLossThenDecay(t *testing.T) {
	tr := decayTrain(200, 170*time.Second, 10)
	// Losses before the buffered run.
	for i := 10; i < 25; i++ {
		tr[i].Responded = false
		tr[i].RTT = 0
	}
	pc := ClassifyHighLatency(map[ipaddr.Addr][]TrainSample{1: tr}, 100*time.Second, time.Second)
	if pc.Events[PatternLossDecay] != 1 {
		t.Errorf("events = %+v", pc.Events)
	}
}

func TestPatternSustained(t *testing.T) {
	tr := train()
	for i := 0; i < 300; i++ {
		s := TrainSample{Seq: i, SentAt: time.Duration(i) * time.Second}
		switch {
		case i < 50 || i >= 250:
			s.Responded, s.RTT = true, 220*time.Millisecond
		default:
			// High, noisy latencies with interleaved loss.
			switch i % 5 {
			case 0:
				s.Responded = false
			case 1:
				s.Responded, s.RTT = true, 130*time.Second
			case 2:
				s.Responded, s.RTT = true, 40*time.Second
			case 3:
				s.Responded, s.RTT = true, 110*time.Second
			default:
				s.Responded, s.RTT = true, 70*time.Second
			}
		}
		tr = append(tr, s)
	}
	pc := ClassifyHighLatency(map[ipaddr.Addr][]TrainSample{1: tr}, 100*time.Second, time.Second)
	if pc.Events[PatternSustained] != 1 {
		t.Errorf("events = %+v", pc.Events)
	}
	if pc.Pings[PatternSustained] < 50 {
		t.Errorf("sustained pings = %d", pc.Pings[PatternSustained])
	}
}

func TestPatternHighBetweenLoss(t *testing.T) {
	tr := train()
	for i := 0; i < 120; i++ {
		s := TrainSample{Seq: i, SentAt: time.Duration(i) * time.Second}
		switch {
		case i < 30 || i >= 90:
			s.Responded, s.RTT = true, 200*time.Millisecond
		case i == 60:
			s.Responded, s.RTT = true, 140*time.Second // lone straggler
		default:
			s.Responded = false
		}
		tr = append(tr, s)
	}
	pc := ClassifyHighLatency(map[ipaddr.Addr][]TrainSample{1: tr}, 100*time.Second, time.Second)
	if pc.Events[PatternHighBetweenLoss] != 1 {
		t.Errorf("events = %+v", pc.Events)
	}
	if pc.Pings[PatternHighBetweenLoss] != 1 {
		t.Errorf("pings = %+v", pc.Pings)
	}
}

func TestPatternNoHighPingsNoEvents(t *testing.T) {
	tr := train(200, 300, 250, 400, 90000, 220)
	pc := ClassifyHighLatency(map[ipaddr.Addr][]TrainSample{1: tr}, 100*time.Second, time.Second)
	total := 0
	for _, v := range pc.Events {
		total += v
	}
	if total != 0 {
		t.Errorf("events without >100s pings: %+v", pc.Events)
	}
}

func TestPatternCountsFormat(t *testing.T) {
	var pc PatternCounts
	s := pc.Format()
	for _, name := range []string{"Low latency, then decay", "Sustained high latency and loss"} {
		if !strings.Contains(s, name) {
			t.Errorf("format missing %q", name)
		}
	}
}

func TestRetryCorrelation(t *testing.T) {
	// Slow probes cluster: P(slow|prev slow) must far exceed P(slow).
	trains := map[ipaddr.Addr][]TrainSample{
		1: train(200, 210, 5000, 5200, 5100, 220, 230, 240, 250, 260),
		2: train(210, 200, 230, 220, 250, 240, 260, 200, 210, 220),
		3: train(210, 200, 230, 220, 250, 240, 260, 200, 210, 220),
	}
	pSlow, pGiven := RetryCorrelation(trains, time.Second, false)
	if pSlow <= 0 || pSlow > 0.2 {
		t.Errorf("pSlow = %v", pSlow)
	}
	if pGiven < 0.5 {
		t.Errorf("pGiven = %v, want strong correlation", pGiven)
	}
}

func TestRetryCorrelationCountsLoss(t *testing.T) {
	trains := map[ipaddr.Addr][]TrainSample{
		1: train(-1, -1, -1, 200, 210, 220, 230, 240),
	}
	pSlow, pGiven := RetryCorrelation(trains, time.Second, true)
	if pSlow == 0 {
		t.Error("losses not counted as slow")
	}
	if pGiven == 0 {
		t.Error("consecutive losses not correlated")
	}
}

// synthetic scans for ranking tests.
func synthScans(db *ipmeta.DB, cellular, wired ipaddr.Prefix24) []ScanTallies {
	mk := func() ScanTallies {
		m := ScanTallies{}
		for i := 0; i < 100; i++ {
			// Cellular: 80 of 100 are turtles; wired: 2 of 100.
			if i < 80 {
				m.Add(cellular.Addr(byte(i)), 2*time.Second)
			} else {
				m.Add(cellular.Addr(byte(i)), 300*time.Millisecond)
			}
			if i < 2 {
				m.Add(wired.Addr(byte(i)), 3*time.Second)
			} else {
				m.Add(wired.Addr(byte(i)), 100*time.Millisecond)
			}
		}
		return m
	}
	return []ScanTallies{mk(), mk(), mk()}
}

func TestRankASes(t *testing.T) {
	cellPfx := ipaddr.MustParse("10.0.0.0").Prefix()
	wirePfx := ipaddr.MustParse("20.0.0.0").Prefix()
	var b ipmeta.Builder
	b.Add(ipmeta.Range{Start: cellPfx, Blocks: 1, AS: ipmeta.AS{ASN: 100, Owner: "CellCo", Type: ipmeta.Cellular, Continent: ipmeta.SouthAmerica}})
	b.Add(ipmeta.Range{Start: wirePfx, Blocks: 1, AS: ipmeta.AS{ASN: 200, Owner: "WireCo", Type: ipmeta.Broadband, Continent: ipmeta.NorthAmerica}})
	db, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	scans := synthScans(db, cellPfx, wirePfx)
	rows := RankASes(scans, db, Turtles, 10)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].AS.ASN != 100 {
		t.Errorf("top AS = %d, want the cellular one", rows[0].AS.ASN)
	}
	if rows[0].Total != 3*80 {
		t.Errorf("total = %d", rows[0].Total)
	}
	for _, sc := range rows[0].PerScan {
		if sc.Rank != 1 || sc.Count != 80 || sc.Probed != 100 {
			t.Errorf("per-scan = %+v", sc)
		}
		if sc.Pct < 79 || sc.Pct > 81 {
			t.Errorf("pct = %v", sc.Pct)
		}
	}
	if CellularShare(rows) != 0.5 {
		t.Errorf("CellularShare = %v", CellularShare(rows))
	}
	if !strings.Contains(FormatASRanks(rows), "CellCo") {
		t.Error("format missing owner")
	}
}

func TestRankContinents(t *testing.T) {
	cellPfx := ipaddr.MustParse("10.0.0.0").Prefix()
	wirePfx := ipaddr.MustParse("20.0.0.0").Prefix()
	var b ipmeta.Builder
	b.Add(ipmeta.Range{Start: cellPfx, Blocks: 1, AS: ipmeta.AS{ASN: 100, Type: ipmeta.Cellular, Continent: ipmeta.SouthAmerica}})
	b.Add(ipmeta.Range{Start: wirePfx, Blocks: 1, AS: ipmeta.AS{ASN: 200, Type: ipmeta.Broadband, Continent: ipmeta.NorthAmerica}})
	db, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rows := RankContinents(synthScans(db, cellPfx, wirePfx), db, Turtles)
	if rows[0].Continent != ipmeta.SouthAmerica {
		t.Errorf("top continent = %v", rows[0].Continent)
	}
	if rows[0].Total != 240 {
		t.Errorf("total = %d", rows[0].Total)
	}
}

func TestSatelliteScatterAndSummary(t *testing.T) {
	satPfx := ipaddr.MustParse("30.0.0.0").Prefix()
	cellPfx := ipaddr.MustParse("10.0.0.0").Prefix()
	var b ipmeta.Builder
	b.Add(ipmeta.Range{Start: satPfx, Blocks: 1, AS: ipmeta.AS{ASN: 300, Type: ipmeta.Satellite, Continent: ipmeta.NorthAmerica}})
	b.Add(ipmeta.Range{Start: cellPfx, Blocks: 1, AS: ipmeta.AS{ASN: 100, Type: ipmeta.Cellular, Continent: ipmeta.SouthAmerica}})
	db, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	q := []AddrQuantiles{
		// Cellular: high P1 AND enormous P99.
		{cellPfx.Addr(1), stats.Quantiles{P1: 500 * time.Millisecond, P99: 120 * time.Second}},
		// Low-P1 host: excluded by the minP1 cut.
		{cellPfx.Addr(2), stats.Quantiles{P1: 50 * time.Millisecond, P99: 90 * time.Second}},
		// Satellite: high P1, modest P99.
		{satPfx.Addr(1), stats.Quantiles{P1: 600 * time.Millisecond, P99: 1500 * time.Millisecond}},
		{satPfx.Addr(2), stats.Quantiles{P1: 700 * time.Millisecond, P99: 2 * time.Second}},
	}
	pts := SatelliteScatter(q, db, 300*time.Millisecond)
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	sum := SummarizeSatellites(pts)
	if sum.SatAddrs != 2 || sum.NonSatAddrs != 1 {
		t.Errorf("summary = %+v", sum)
	}
	if sum.SatP1AboveHalf != 1 || sum.SatP99Below3s != 1 {
		t.Errorf("satellite stats = %+v", sum)
	}
	if sum.NonSatP99Above3s != 1 {
		t.Errorf("non-satellite stats = %+v", sum)
	}
}

func TestPerAddressQuantilesAndMatrix(t *testing.T) {
	var b recBuilder
	for i, rtt := range []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 300 * time.Millisecond} {
		send := time.Duration(i) * 660 * time.Second
		b.matched(1, send, rtt).matched(2, send, time.Duration(i+1)*time.Second).timeout(3, send)
	}
	q := Match(b.recs, Options{}).AddressQuantiles(true)
	if len(q) != 2 || q[0].Addr != 1 || q[1].Addr != 2 {
		t.Fatalf("quantiles for %+v, want addresses 1 and 2", q)
	}
	m := TimeoutMatrix(q)
	if m.Addresses != 2 {
		t.Errorf("matrix addresses = %d", m.Addresses)
	}
	if m.At(99, 99) != 3*time.Second {
		t.Errorf("99/99 = %v", m.At(99, 99))
	}
}

func TestFracAddrsAbove(t *testing.T) {
	q := []AddrQuantiles{
		{1, stats.Quantiles{P95: 10 * time.Second}},
		{2, stats.Quantiles{P95: time.Second}},
		{3, stats.Quantiles{P95: 8 * time.Second}},
		{4, stats.Quantiles{P95: 100 * time.Millisecond}},
	}
	if got := FracAddrsAbove(q, 95, 5*time.Second); got != 0.5 {
		t.Errorf("FracAddrsAbove = %v", got)
	}
	if got := FracAddrsAbove(nil, 95, time.Second); got != 0 {
		t.Errorf("empty = %v", got)
	}
}

func TestPercentileCDFLevels(t *testing.T) {
	q := []AddrQuantiles{
		{1, stats.Quantiles{P50: time.Second, P99: 2 * time.Second}},
		{2, stats.Quantiles{P50: 3 * time.Second, P99: 4 * time.Second}},
	}
	cdfs := PercentileCDF(q, 0)
	if len(cdfs) != len(stats.StandardPercentiles) {
		t.Fatalf("curves = %d", len(cdfs))
	}
	if pts := cdfs[99]; len(pts) != 2 || pts[1].Value != 4*time.Second {
		t.Errorf("p99 curve = %+v", pts)
	}
}

func TestSurveyPointFormatting(t *testing.T) {
	per := []stats.Quantiles{{P50: time.Second, P95: 2 * time.Second, P99: 3 * time.Second}}
	pt := SurveyPoint{Label: "it63w", Vantage: 'w', Year: 2015, Matrix: stats.BuildTimeoutMatrix(per), ResponseRate: 0.21}
	if pt.DiagonalTimeout(95) != 2*time.Second {
		t.Errorf("diagonal = %v", pt.DiagonalTimeout(95))
	}
	s := FormatTimeSeries([]SurveyPoint{pt, {Label: "itXXj", Vantage: 'j', Year: 2014, Matrix: pt.Matrix, Broken: true}})
	if !strings.Contains(s, "it63w") || !strings.Contains(s, "itXXj") {
		t.Error("format missing labels")
	}
}

func TestDetectFirewalls(t *testing.T) {
	fw := ipaddr.MustParse("50.0.0.0").Prefix()
	host := ipaddr.MustParse("60.0.0.0").Prefix()
	var replies []TCPReply
	// Firewalled block: 5 addresses, identical TTL 243, fast.
	for i := 0; i < 5; i++ {
		replies = append(replies, TCPReply{Addr: fw.Addr(byte(10 + i)), RTT: 200 * time.Millisecond, TTL: 243})
	}
	// Host block: varied TTLs (OS mix minus varied hops), slower.
	ttls := []byte{50, 113, 52, 115, 241}
	for i, ttl := range ttls {
		replies = append(replies, TCPReply{Addr: host.Addr(byte(10 + i)), RTT: 600 * time.Millisecond, TTL: ttl})
	}
	v := DetectFirewalls(replies, 3, time.Second)
	if !v[fw].Firewall || v[fw].TTL != 243 {
		t.Errorf("firewalled block verdict = %+v", v[fw])
	}
	if v[host].Firewall {
		t.Errorf("host block misflagged: %+v", v[host])
	}
	// A uniform-TTL block with too few addresses must not be flagged.
	lone := ipaddr.MustParse("70.0.0.0").Prefix()
	v2 := DetectFirewalls([]TCPReply{
		{Addr: lone.Addr(1), RTT: 100 * time.Millisecond, TTL: 200},
		{Addr: lone.Addr(1), RTT: 110 * time.Millisecond, TTL: 200},
	}, 3, time.Second)
	if v2[lone].Firewall {
		t.Error("single-address block flagged as firewall")
	}
	// Slow uniform blocks are not firewalls either (firewalls answer from
	// the edge).
	slow := ipaddr.MustParse("80.0.0.0").Prefix()
	var slowReplies []TCPReply
	for i := 0; i < 4; i++ {
		slowReplies = append(slowReplies, TCPReply{Addr: slow.Addr(byte(i)), RTT: 5 * time.Second, TTL: 100})
	}
	if v3 := DetectFirewalls(slowReplies, 3, time.Second); v3[slow].Firewall {
		t.Error("slow block flagged as firewall")
	}
}
