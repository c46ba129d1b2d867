package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHashDeterministic(t *testing.T) {
	a := Hash(1, 2, 3)
	b := Hash(1, 2, 3)
	if a != b {
		t.Fatal("Hash not deterministic")
	}
	if Hash(1, 2, 3) == Hash(1, 3, 2) {
		t.Error("Hash should be order-sensitive")
	}
	if Hash(1, 2) == Hash(2, 2) {
		t.Error("Hash should depend on seed")
	}
}

func TestFloat01Range(t *testing.T) {
	f := func(h uint64) bool {
		v := Float01(h)
		return v >= 0 && v < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHashFloatUniformity(t *testing.T) {
	// Mean of many hash-derived uniforms should be near 0.5.
	const n = 20000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += HashFloat(7, uint64(i))
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean of uniforms = %.4f, want ~0.5", mean)
	}
}

func TestHashIntnRange(t *testing.T) {
	f := func(seed uint64, k uint64) bool {
		v := HashIntn(17, seed, k)
		return v >= 0 && v < 17
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRandDeterministicStreams(t *testing.T) {
	r1 := Seeded(42, 7)
	r2 := Seeded(42, 7)
	for i := 0; i < 100; i++ {
		if r1.Uint64() != r2.Uint64() {
			t.Fatal("streams with equal seeds diverge")
		}
	}
	r3 := Seeded(42, 8)
	same := 0
	r1 = Seeded(42, 7)
	for i := 0; i < 100; i++ {
		if r1.Uint64() == r3.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("streams with different keys agree %d/100 times", same)
	}
}

func TestNormMoments(t *testing.T) {
	r := Seeded(1)
	const n = 50000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sq += v * v
	}
	mean, varr := sum/n, sq/n
	if math.Abs(mean) > 0.03 {
		t.Errorf("Norm mean = %.4f", mean)
	}
	if math.Abs(varr-1) > 0.05 {
		t.Errorf("Norm variance = %.4f", varr)
	}
}

func TestExpMean(t *testing.T) {
	r := Seeded(2)
	const n = 50000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.Exp(3.5)
		if v < 0 {
			t.Fatal("Exp returned negative")
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-3.5) > 0.15 {
		t.Errorf("Exp mean = %.3f, want ~3.5", mean)
	}
}

func TestParetoBounds(t *testing.T) {
	r := Seeded(4)
	for i := 0; i < 10000; i++ {
		if v := r.Pareto(2.0, 1.5); v < 2.0 {
			t.Fatalf("Pareto below scale: %v", v)
		}
	}
}

func TestParetoTailIndex(t *testing.T) {
	// P(X > 2*xm) should be 2^-alpha.
	r := Seeded(5)
	const n = 200000
	over := 0
	for i := 0; i < n; i++ {
		if r.Pareto(1, 1.0) > 2 {
			over++
		}
	}
	frac := float64(over) / n
	if math.Abs(frac-0.5) > 0.01 {
		t.Errorf("P(X>2xm) = %.4f, want ~0.5 for alpha=1", frac)
	}
}

func TestBoolProbability(t *testing.T) {
	r := Seeded(6)
	const n = 50000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Errorf("Bool(0.3) hit rate %.3f", frac)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	r := Seeded(1)
	r.Intn(0)
}

// Extend continues Hash's fold, so hashing a key prefix once and extending
// it gives every output bit Hash gives for the whole key list.
func TestExtendContinuesHash(t *testing.T) {
	f := func(seed, a uint64, keys []uint64) bool {
		return Extend(Hash(seed, a), keys...) == Hash(seed, append([]uint64{a}, keys...)...) &&
			Extend(Hash(seed), append([]uint64{a}, keys...)...) == Hash(seed, append([]uint64{a}, keys...)...)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// FromHash seeds the generator Seeded builds from the same arguments.
func TestFromHashMatchesSeeded(t *testing.T) {
	f := func(seed, a, b uint64) bool {
		r1, r2 := Seeded(seed, a, b), FromHash(Extend(Hash(seed, a), b))
		for i := 0; i < 4; i++ {
			if r1.Uint64() != r2.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
