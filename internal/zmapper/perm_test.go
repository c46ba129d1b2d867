package zmapper

import "testing"

// checkPermutation walks a fresh iterator collecting the full emission
// order, checks that it covers [0, n) with no repeats, then checks that
// Seek(pos) on a fresh instance resumes exactly at order[pos:], through the
// closed form for power-of-two n and the walk otherwise.
func checkPermutation(t *testing.T, n int, seed uint64) {
	t.Helper()
	it := NewPermutation(n, seed)
	order := make([]int, 0, n)
	seen := make([]bool, n)
	for {
		v, ok := it.Next()
		if !ok {
			break
		}
		if v < 0 || v >= n {
			t.Fatalf("n=%d seed=%d: emitted %d outside [0,%d)", n, seed, v, n)
		}
		if seen[v] {
			t.Fatalf("n=%d seed=%d: %d emitted twice", n, seed, v)
		}
		seen[v] = true
		order = append(order, v)
	}
	if len(order) != n {
		t.Fatalf("n=%d seed=%d: emitted %d values, want %d", n, seed, len(order), n)
	}

	for _, pos := range []int{0, 1, n / 3, n / 2, n - 1, n} {
		if pos < 0 || pos > n {
			continue
		}
		q := NewPermutation(n, seed)
		q.Seek(pos)
		for want := pos; want < n; want++ {
			v, ok := q.Next()
			if !ok {
				t.Fatalf("n=%d seed=%d: Seek(%d) exhausted at pos %d", n, seed, pos, want)
			}
			if v != order[want] {
				t.Fatalf("n=%d seed=%d: Seek(%d) then Next #%d = %d, want %d", n, seed, pos, want-pos, v, order[want])
			}
		}
		if _, ok := q.Next(); ok {
			t.Fatalf("n=%d seed=%d: Seek(%d) over-emitted", n, seed, pos)
		}
	}
}

func TestPermutationSeekResumes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 13, 16, 100, 255, 256, 257, 1024, 24576} {
		for seed := uint64(0); seed < 3; seed++ {
			checkPermutation(t, n, seed)
		}
	}
}

// TestPermutationSeekLargePow2 checks the closed form at a size whose
// positions span many bits: a deep seek lands where a long walk would.
func TestPermutationSeekLargePow2(t *testing.T) {
	const n = 1 << 20
	q := NewPermutation(n, 42)
	q.Seek(n - 3)
	w := NewPermutation(n, 42)
	for i := 0; i < n-3; i++ {
		w.Next()
	}
	for i := 0; i < 3; i++ {
		qv, qok := q.Next()
		wv, wok := w.Next()
		if qv != wv || qok != wok {
			t.Fatalf("tail element %d: seek gave (%d,%v), walk gave (%d,%v)", i, qv, qok, wv, wok)
		}
	}
}

func TestPermutationSeekRewinds(t *testing.T) {
	p := NewPermutation(100, 7)
	first := make([]int, 0, 100)
	for {
		v, ok := p.Next()
		if !ok {
			break
		}
		first = append(first, v)
	}
	p.Seek(0)
	for i := range first {
		v, ok := p.Next()
		if !ok || v != first[i] {
			t.Fatalf("after rewind, element %d = (%d,%v), want (%d,true)", i, v, ok, first[i])
		}
	}
}

// FuzzPermutation checks the Next order — full coverage, no repeats — and
// Seek resumption across sizes including non-powers-of-two and size 1.
func FuzzPermutation(f *testing.F) {
	f.Add(uint16(1), uint64(0))
	f.Add(uint16(2), uint64(1))
	f.Add(uint16(3), uint64(99))
	f.Add(uint16(24), uint64(7))
	f.Add(uint16(256), uint64(12345))
	f.Add(uint16(257), uint64(3))
	f.Add(uint16(4096), uint64(8))
	f.Fuzz(func(t *testing.T, rawN uint16, seed uint64) {
		n := int(rawN%4096) + 1
		checkPermutation(t, n, seed)
	})
}
