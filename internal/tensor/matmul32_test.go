package tensor

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// rand32 fills a rows×cols matrix with values in [-2, 2), forcing roughly
// zeroFrac of them to exact zero (the paper's binary feature rows are
// mostly zeros, and the generic kernel has a zero-skip worth covering).
func rand32(r *rand.Rand, rows, cols int, zeroFrac float64) *Matrix32 {
	m := New32(rows, cols)
	for i := range m.Data {
		if r.Float64() < zeroFrac {
			continue
		}
		m.Data[i] = float32(r.Float64()*4 - 2)
	}
	return m
}

func bitsEqual32(a, b *Matrix32) (int, bool) {
	for i := range a.Data {
		if math.Float32bits(a.Data[i]) != math.Float32bits(b.Data[i]) {
			return i, false
		}
	}
	return -1, true
}

// naiveF32 is the textbook multiply-then-add triple loop with no zero
// skipping and no blocking — the semantic definition the portable kernel
// must match bit for bit on finite inputs.
func naiveF32(a, b *Matrix32) *Matrix32 {
	dst := New32(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var acc float32
			for k := 0; k < a.Cols; k++ {
				acc += a.At(i, k) * b.At(k, j)
			}
			dst.Set(i, j, acc)
		}
	}
	return dst
}

func TestMatMulF32GenericMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, sh := range [][3]int{{1, 1, 1}, {3, 17, 5}, {7, 64, 33}, {16, 100, 70}} {
		a := rand32(r, sh[0], sh[1], 0.4)
		b := rand32(r, sh[1], sh[2], 0.2)
		got := New32(sh[0], sh[2])
		matMulF32Generic(got, a, b, 0, a.Rows)
		want := naiveF32(a, b)
		if i, ok := bitsEqual32(got, want); !ok {
			t.Fatalf("shape %v: generic differs from naive at flat index %d: %g vs %g",
				sh, i, got.Data[i], want.Data[i])
		}
	}
}

func TestMatMulF32MatchesFloat64(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	a := rand32(r, 32, 491, 0.7)
	b := rand32(r, 491, 96, 0)
	got := New32(32, 96)
	MatMulF32(got, a, b, nil)
	want := New(32, 96)
	MatMul(want, a.Float64(), b.Float64())
	for i := range got.Data {
		if d := math.Abs(float64(got.Data[i]) - want.Data[i]); d > 1e-3 {
			t.Fatalf("flat index %d: float32 %g vs float64 %g (delta %g)",
				i, got.Data[i], want.Data[i], d)
		}
	}
}

func TestMatMulF32ParallelMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	a := rand32(r, 37, 130, 0.3)
	b := rand32(r, 130, 97, 0)
	serial := New32(37, 97)
	matMulF32Range(serial, a, b, 0, a.Rows)
	for _, workers := range []int{2, 3, 8, 64} {
		par := New32(37, 97)
		matMulF32Parallel(par, a, b, nil, workers)
		if i, ok := bitsEqual32(par, serial); !ok {
			t.Fatalf("workers=%d: parallel differs from serial at flat index %d", workers, i)
		}
	}
}

func TestMatMulF32DegenerateShapes(t *testing.T) {
	// Zero inner dimension: dst must be cleared, not left stale.
	dst := FromSlice32(2, 3, []float32{1, 2, 3, 4, 5, 6})
	MatMulF32(dst, New32(2, 0), New32(0, 3), nil)
	for i, v := range dst.Data {
		if v != 0 {
			t.Fatalf("k=0: dst[%d] = %g, want 0", i, v)
		}
	}
	// Zero rows / zero cols: no panic, nothing to write.
	MatMulF32(New32(0, 3), New32(0, 5), New32(5, 3), nil)
	MatMulF32(New32(2, 0), New32(2, 5), New32(5, 0), nil)
}

func TestMatMulF32PanicsOnShapeMismatch(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("inner", func() { MatMulF32(New32(2, 3), New32(2, 4), New32(5, 3), nil) })
	mustPanic("dst", func() { MatMulF32(New32(9, 9), New32(2, 4), New32(4, 3), nil) })
}

func TestMatrix32Basics(t *testing.T) {
	m := New32(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 || m.Data[5] != 7 {
		t.Fatalf("Set/At: got %g", m.At(1, 2))
	}
	m.Row(0)[1] = 4
	if m.At(0, 1) != 4 {
		t.Fatal("Row must be a view, not a copy")
	}
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) == 99 {
		t.Fatal("Clone must not share backing storage")
	}
	if !m.SameShape(c) || m.SameShape(New32(3, 2)) {
		t.Fatal("SameShape mismatch")
	}
	am := FromSlice32(2, 3, []float32{1, 5, 5, -1, -1, -3})
	if am.RowArgmax(0) != 1 {
		t.Fatalf("RowArgmax tie must break low: got %d", am.RowArgmax(0))
	}
	if am.RowArgmax(1) != 0 {
		t.Fatalf("RowArgmax row 1: got %d", am.RowArgmax(1))
	}
}

func TestFloat32Float64Conversions(t *testing.T) {
	src := FromSlice32(1, 4, []float32{0, 1, -0.5, float32(math.Pi)})
	back := ToFloat32(src.Float64())
	if i, ok := bitsEqual32(src, back); !ok {
		t.Fatalf("f32→f64→f32 not exact at %d", i)
	}
	big := FromSlice(1, 2, []float64{math.MaxFloat64, -1e300})
	n := ToFloat32(big)
	if !math.IsInf(float64(n.Data[0]), 1) || !math.IsInf(float64(n.Data[1]), -1) {
		t.Fatalf("overflow must narrow to ±Inf, got %v", n.Data)
	}
}

// TestMatMulF32Epilogue checks the epilogue contract: every output row
// reaches it exactly once, as part of a run of whole rows, after the
// product is written, on the serial, sharded and zero-inner-width paths.
func TestMatMulF32Epilogue(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for _, sh := range [][3]int{{5, 7, 3}, {37, 130, 97}, {4, 0, 6}} {
		a := rand32(r, sh[0], sh[1], 0.3)
		b := rand32(r, sh[1], sh[2], 0)
		want := New32(sh[0], sh[2])
		MatMulF32(want, a, b, nil)
		for _, workers := range []int{1, 2, 3} {
			got := New32(sh[0], sh[2])
			var mu sync.Mutex
			seen := 0
			double := func(rows []float32) {
				if len(rows)%sh[2] != 0 {
					t.Errorf("shape %v: epilogue got %d values, not whole rows", sh, len(rows))
				}
				for i := range rows {
					rows[i] *= 2
				}
				mu.Lock()
				seen += len(rows)
				mu.Unlock()
			}
			if workers == 1 {
				matMulF32Shard(got, a, b, double, 0, a.Rows)
			} else {
				matMulF32Parallel(got, a, b, double, workers)
			}
			if seen != len(want.Data) {
				t.Fatalf("shape %v workers %d: epilogue saw %d values, want %d", sh, workers, seen, len(want.Data))
			}
			for i, v := range want.Data {
				if math.Float32bits(got.Data[i]) != math.Float32bits(2*v) {
					t.Fatalf("shape %v workers %d: flat index %d = %g, want %g", sh, workers, i, got.Data[i], 2*v)
				}
			}
		}
	}
}

func TestFirstNonFinite32(t *testing.T) {
	nan := math.Float32frombits(0x7fc00000)
	negNaN := math.Float32frombits(0xffc00000)
	sigNaN := math.Float32frombits(0x7f800001)
	inf := float32(math.Inf(1))
	negZero := math.Float32frombits(0x80000000)
	subnormal := math.Float32frombits(1)
	for _, tc := range []struct {
		name string
		x    []float32
		want int
	}{
		{"empty", nil, -1},
		{"zeros", []float32{0, negZero}, -1},
		{"subnormals", []float32{subnormal, -subnormal, math.Float32frombits(0x007fffff)}, -1},
		{"max", []float32{math.MaxFloat32, -math.MaxFloat32, math.SmallestNonzeroFloat32}, -1},
		{"+inf", []float32{1, 2, inf}, 2},
		{"-inf", []float32{-inf, 1}, 0},
		{"nan", []float32{0, nan}, 1},
		{"negative nan", []float32{1, negNaN, inf}, 1},
		{"signalling nan", []float32{sigNaN}, 0},
		{"first of many", []float32{0, 3, negNaN, nan, inf}, 2},
	} {
		if got := FirstNonFinite32(tc.x); got != tc.want {
			t.Errorf("%s: FirstNonFinite32(%v) = %d, want %d", tc.name, tc.x, got, tc.want)
		}
	}
}

// Benchmark shapes are the paper model's layers (491→1200→1500→1300→2) at
// a batch of 256 rows. Regenerate BENCH_infer.json
// from these plus the internal/nn inference benchmarks.
var benchShapes = []struct {
	name    string
	m, k, n int
}{
	{"256x491x1200", 256, 491, 1200},
	{"256x1200x1500", 256, 1200, 1500},
	{"256x1500x1300", 256, 1500, 1300},
	{"256x1300x2", 256, 1300, 2},
}

func BenchmarkMatMulF32(b *testing.B) {
	r := rand.New(rand.NewSource(31))
	for _, sh := range benchShapes {
		a := rand32(r, sh.m, sh.k, 0.7)
		w := rand32(r, sh.k, sh.n, 0)
		dst := New32(sh.m, sh.n)
		b.Run(sh.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MatMulF32(dst, a, w, nil)
			}
		})
	}
}

func BenchmarkMatMulF64(b *testing.B) {
	r := rand.New(rand.NewSource(32))
	for _, sh := range benchShapes {
		a := rand32(r, sh.m, sh.k, 0.7).Float64()
		w := rand32(r, sh.k, sh.n, 0).Float64()
		dst := New(sh.m, sh.n)
		b.Run(sh.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MatMul(dst, a, w)
			}
		})
	}
}
