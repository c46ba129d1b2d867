package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func durs(vs ...int) []time.Duration {
	out := make([]time.Duration, len(vs))
	for i, v := range vs {
		out[i] = time.Duration(v) * time.Millisecond
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	s := durs(10, 20, 30, 40, 50, 60, 70, 80, 90, 100)
	cases := []struct {
		p    float64
		want time.Duration
	}{
		{1, 10 * time.Millisecond},
		{10, 10 * time.Millisecond},
		{50, 50 * time.Millisecond},
		{90, 90 * time.Millisecond},
		{95, 100 * time.Millisecond},
		{100, 100 * time.Millisecond},
	}
	for _, c := range cases {
		if got := Percentile(s, c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

// nearestRankUint64 is NearestRank with the ceiling converted through
// uint64: the reference for the int64 conversion.
func nearestRankUint64(p float64, n uint64) uint64 {
	target := uint64(p / 100 * float64(n))
	if float64(target) < p/100*float64(n) || target == 0 {
		target++
	}
	return min(target, n)
}

func TestNearestRankMatchesUint64Form(t *testing.T) {
	for n := uint64(0); n < 1<<21; n++ {
		for _, p := range StandardPercentiles {
			if got, want := NearestRank(p, n), nearestRankUint64(p, n); got != want {
				t.Fatalf("NearestRank(%v, %d) = %d, uint64 form %d", p, n, got, want)
			}
		}
	}
	rng := rand.New(rand.NewSource(53))
	for k := 0; k < 1<<16; k++ {
		n := uint64(rng.Int63n(1 << 53))
		for _, p := range StandardPercentiles {
			if got, want := NearestRank(p, n), nearestRankUint64(p, n); got != want {
				t.Fatalf("NearestRank(%v, %d) = %d, uint64 form %d", p, n, got, want)
			}
		}
	}
}

// TestNearestRankEdges pins the clamps Percentile and the bucketed
// quantiles rely on, and agreement with the math.Ceil form Percentile
// computed its rank with.
func TestNearestRankEdges(t *testing.T) {
	for _, n := range []uint64{0, 1, 2, 10, 1000} {
		for _, p := range []float64{-50, -1e-9, 0, 100, 100.5, 1e300} {
			want := min(1, n) // the lowest rank
			if p >= 100 {
				want = n
			}
			if got := NearestRank(p, n); got != want {
				t.Errorf("NearestRank(%v, %d) = %d, want %d", p, n, got, want)
			}
		}
	}
	for _, p := range []float64{1e-300, 0.5, 1, 33.3, 50, 80, 99, 99.9, 99.99999999999999} {
		if got := NearestRank(p, 0); got != 0 {
			t.Errorf("NearestRank(%v, 0) = %d, want 0", p, got)
		}
		if got := NearestRank(p, 1); got != 1 {
			t.Errorf("NearestRank(%v, 1) = %d, want 1", p, got)
		}
		for n := 1; n <= 4096; n++ {
			want := max(int(math.Ceil(p/100*float64(n))), 1)
			if got := NearestRank(p, uint64(n)); got != uint64(want) {
				t.Fatalf("NearestRank(%v, %d) = %d, math.Ceil form %d", p, n, got, want)
			}
		}
	}
}

func TestPercentileSingleSample(t *testing.T) {
	s := durs(42)
	for _, p := range StandardPercentiles {
		if got := Percentile(s, p); got != 42*time.Millisecond {
			t.Errorf("Percentile(%v) of single sample = %v", p, got)
		}
	}
}

func TestPercentilePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic on empty slice")
		}
	}()
	Percentile(nil, 50)
}

// Property: the percentile is always an element of the sample set and is
// monotone nondecreasing in p.
func TestPercentileProperties(t *testing.T) {
	f := func(raw []uint16, pRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		s := make([]time.Duration, len(raw))
		for i, v := range raw {
			s[i] = time.Duration(v)
		}
		SortDurations(s)
		p := float64(pRaw%100) + 1
		v := Percentile(s, p)
		found := false
		for _, x := range s {
			if x == v {
				found = true
			}
		}
		if !found {
			return false
		}
		if p < 100 && Percentile(s, p) > Percentile(s, p+0.5) {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: nearest-rank percentile has at least ceil(p% * n) samples <= it.
func TestPercentileCoverageProperty(t *testing.T) {
	f := func(raw []uint16, pRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		s := make([]time.Duration, len(raw))
		for i, v := range raw {
			s[i] = time.Duration(v)
		}
		SortDurations(s)
		p := float64(pRaw%99) + 1
		v := Percentile(s, p)
		atMost := 0
		for _, x := range s {
			if x <= v {
				atMost++
			}
		}
		need := int(math.Ceil(p / 100 * float64(len(s))))
		return atMost >= need
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestComputeQuantilesOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := make([]time.Duration, 500)
	for i := range s {
		s[i] = time.Duration(rng.Intn(1e9))
	}
	q := ComputeQuantiles(s)
	if !(q.P1 <= q.P50 && q.P50 <= q.P80 && q.P80 <= q.P90 && q.P90 <= q.P95 && q.P95 <= q.P98 && q.P98 <= q.P99) {
		t.Errorf("quantiles not monotone: %+v", q)
	}
	for _, p := range StandardPercentiles {
		if q.At(p) != Percentile(s, p) {
			t.Errorf("At(%v) mismatch", p)
		}
	}
}

func TestCDF(t *testing.T) {
	s := durs(1, 2, 3, 4)
	pts := CDF(s, 0)
	if len(pts) != 4 {
		t.Fatalf("CDF points = %d", len(pts))
	}
	if pts[0].Frac != 0.25 || pts[3].Frac != 1.0 {
		t.Errorf("CDF fractions wrong: %+v", pts)
	}
	if pts[3].Value != 4*time.Millisecond {
		t.Errorf("CDF last value = %v", pts[3].Value)
	}
}

func TestCDFThinning(t *testing.T) {
	s := make([]time.Duration, 1000)
	for i := range s {
		s[i] = time.Duration(i)
	}
	pts := CDF(s, 50)
	if len(pts) < 40 || len(pts) > 70 {
		t.Errorf("thinned CDF has %d points", len(pts))
	}
	if pts[len(pts)-1].Frac != 1 {
		t.Error("thinned CDF must end at fraction 1")
	}
}

func TestCCDF(t *testing.T) {
	pts := CCDF([]float64{1, 1, 2, 3})
	// values 1,2,3: frac above 1 = 0.5, above 2 = 0.25, above 3 = 0.
	if len(pts) != 3 {
		t.Fatalf("CCDF points = %d", len(pts))
	}
	if pts[0].Frac != 0.5 || pts[1].Frac != 0.25 || pts[2].Frac != 0 {
		t.Errorf("CCDF = %+v", pts)
	}
}

func TestFracAbove(t *testing.T) {
	s := durs(1, 2, 3, 4)
	if got := FracAbove(s, 2*time.Millisecond); got != 0.5 {
		t.Errorf("FracAbove = %v", got)
	}
	if got := FracAbove(s, 0); got != 1 {
		t.Errorf("FracAbove(0) = %v", got)
	}
	if got := FracAbove(s, time.Second); got != 0 {
		t.Errorf("FracAbove(1s) = %v", got)
	}
}

func TestEWMA(t *testing.T) {
	e := EWMA{Alpha: 0.5}
	e.Observe(1)
	e.Observe(0)
	e.Observe(0)
	if e.Count() != 3 {
		t.Errorf("Count = %d", e.Count())
	}
	// First observation seeds the value directly.
	if e.Max() != 1 {
		t.Errorf("Max = %v", e.Max())
	}
	if got := e.Value(); math.Abs(got-0.25) > 1e-12 {
		t.Errorf("Value = %v, want 0.25", got)
	}
}

func TestEWMAConvergesToConstant(t *testing.T) {
	e := EWMA{Alpha: 0.01}
	for i := 0; i < 1000; i++ {
		e.Observe(1)
	}
	if e.Value() < 0.99 {
		t.Errorf("EWMA of constant 1 = %v", e.Value())
	}
}

func TestBuildTimeoutMatrix(t *testing.T) {
	// Three addresses with distinct constant latencies: the matrix columns
	// are flat per address and the rows select across addresses.
	mk := func(ms int) Quantiles {
		d := time.Duration(ms) * time.Millisecond
		return Quantiles{P1: d, P50: d, P80: d, P90: d, P95: d, P98: d, P99: d}
	}
	per := []Quantiles{mk(100), mk(200), mk(300)}
	m := BuildTimeoutMatrix(per)
	if m.Addresses != 3 {
		t.Errorf("Addresses = %d", m.Addresses)
	}
	if got := m.At(50, 50); got != 200*time.Millisecond {
		t.Errorf("50/50 = %v", got)
	}
	if got := m.At(99, 99); got != 300*time.Millisecond {
		t.Errorf("99/99 = %v", got)
	}
	if got := m.At(1, 1); got != 100*time.Millisecond {
		t.Errorf("1/1 = %v", got)
	}
}

// Property: the timeout matrix is monotone nondecreasing along rows and
// columns.
func TestTimeoutMatrixMonotone(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%40) + 2
		rng := rand.New(rand.NewSource(seed))
		per := make([]Quantiles, n)
		for i := range per {
			s := make([]time.Duration, 50)
			for j := range s {
				s[j] = time.Duration(rng.Intn(1e10))
			}
			per[i] = ComputeQuantiles(s)
		}
		m := BuildTimeoutMatrix(per)
		for r := 0; r < len(m.Levels); r++ {
			for c := 0; c < len(m.Levels); c++ {
				if r > 0 && m.Cell[r][c] < m.Cell[r-1][c] {
					return false
				}
				if c > 0 && m.Cell[r][c] < m.Cell[r][c-1] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// The matrix against a brute-force definition: cell(r,c) is the r-th
// percentile over addresses of each address's c-th percentile latency.
func TestTimeoutMatrixBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 37
	per := make([]Quantiles, n)
	for i := range per {
		s := make([]time.Duration, 100)
		for j := range s {
			s[j] = time.Duration(rng.Intn(1e9))
		}
		per[i] = ComputeQuantiles(s)
	}
	m := BuildTimeoutMatrix(per)
	for _, r := range StandardPercentiles {
		for _, c := range StandardPercentiles {
			col := make([]time.Duration, n)
			for i, q := range per {
				col[i] = q.At(c)
			}
			sort.Slice(col, func(i, j int) bool { return col[i] < col[j] })
			want := Percentile(col, r)
			if got := m.At(r, c); got != want {
				t.Errorf("cell(%v,%v) = %v, want %v", r, c, got, want)
			}
		}
	}
}

func TestFormatDurSeconds(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{190 * time.Millisecond, "0.19"},
		{41 * time.Second, "41"},
		{0, "0.00"},
		{9990 * time.Millisecond, "9.99"},
		// 9.995s as a float64 sits a hair below the half-way point, so it
		// still rounds down; the band that used to break starts just above.
		{9995 * time.Millisecond, "9.99"},
		// The boundary band: raw values below 10 s whose two-decimal
		// rendering rounds up to ten must take the integer branch — the
		// paper-table invariant is that two decimals imply < 10 s.
		{9996 * time.Millisecond, "10"},
		{9999 * time.Millisecond, "10"},
		{10 * time.Second, "10"},
		{10*time.Second + 4*time.Millisecond, "10"},
	}
	for _, c := range cases {
		if got := FormatDurSeconds(c.d); got != c.want {
			t.Errorf("FormatDurSeconds(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}

func TestTimeoutMatrixAtToleratesFloatNoise(t *testing.T) {
	m := BuildTimeoutMatrix([]Quantiles{
		{P1: 100 * time.Millisecond, P50: 200 * time.Millisecond, P80: 250 * time.Millisecond,
			P90: 260 * time.Millisecond, P95: 270 * time.Millisecond, P98: 280 * time.Millisecond, P99: 300 * time.Millisecond},
	})
	// Computed levels carry float noise (e.g. accumulating 0.1 eight times
	// and scaling by 100 yields 80.00000000000001, not 80): such a value
	// must still resolve to its standard slot instead of panicking.
	noisy := 80.00000000000001
	if noisy == 80 {
		t.Fatal("test premise broken: noisy level compares equal to 80")
	}
	if got := m.At(noisy, noisy); got != 250*time.Millisecond {
		t.Errorf("At(%v, %v) = %v, want 250ms", noisy, noisy, got)
	}
	if _, err := m.AtLevel(42, 95); err == nil {
		t.Error("AtLevel(42, 95) should report a non-standard level")
	}
	if _, err := m.AtLevel(95, 42); err == nil {
		t.Error("AtLevel(95, 42) should report a non-standard level")
	}
	if d, err := m.AtLevel(99, 1); err != nil || d != 100*time.Millisecond {
		t.Errorf("AtLevel(99, 1) = %v, %v", d, err)
	}
	defer func() {
		if recover() == nil {
			t.Error("At with a genuinely non-standard level should still panic")
		}
	}()
	m.At(42, 42)
}

func TestMatrixFormatSmoke(t *testing.T) {
	m := BuildTimeoutMatrix([]Quantiles{{P1: time.Second}})
	if s := m.FormatSeconds(); len(s) == 0 {
		t.Error("empty format")
	}
}
