package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// goldenF32 is the rounding-contract reference for the assembly path:
// columns below b.Cols&^31 are a scalar FMA accumulation over k in
// ascending order (fma32 is a single VFMADD231SS), the remaining tail
// columns are scalar multiply-then-add. Every vector tile must match it
// bit for bit — tiles only regroup independent output elements.
func goldenF32(a, b *Matrix32) *Matrix32 {
	dst := New32(a.Rows, b.Cols)
	blocked := b.Cols &^ 31
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < blocked; j++ {
			var acc float32
			for k := 0; k < a.Cols; k++ {
				acc = fma32(a.At(i, k), b.At(k, j), acc)
			}
			dst.Set(i, j, acc)
		}
		for j := blocked; j < b.Cols; j++ {
			var acc float32
			for k := 0; k < a.Cols; k++ {
				acc += a.At(i, k) * b.At(k, j)
			}
			dst.Set(i, j, acc)
		}
	}
	return dst
}

// TestMatMulF32GoldenBits pins the vector tiles to the scalar FMA
// reference across every tile-dispatch edge: row tails (m mod 4, m mod 2),
// the 64-wide/32-wide panel boundary, sub-32 column tails and their
// four-row by two-column blocks, and the sharded products of the served
// model's layers.
func TestMatMulF32GoldenBits(t *testing.T) {
	if F32Kernel() == "generic" {
		t.Skip("no AVX2+FMA on this CPU; vector tiles not in play")
	}
	t.Logf("active kernel: %s", F32Kernel())
	r := rand.New(rand.NewSource(41))
	shapes := [][3]int{
		{1, 1, 1},
		{1, 7, 31},  // all-tail columns
		{2, 9, 32},  // exactly one YMM panel
		{3, 33, 33}, // YMM panel + 1 tail column
		{5, 96, 63},
		{4, 50, 64}, // exactly one ZMM panel on avx512
		{7, 130, 65},
		{6, 2, 96},
		{9, 64, 97},
		{13, 200, 160},
		{5, 491, 491}, // paper input width, odd everything
		{33, 100, 128},
		{256, 491, 512}, // score-bin's layers: sharded, all-ZMM panels
		{256, 512, 256},
		{256, 256, 2}, // the output layer: all tail, 4-row blocks
		{5, 256, 2},   // two-column tail with a row remainder
		{7, 33, 34},   // one YMM panel, then a two-column tail, 3 rows over
	}
	for _, sh := range shapes {
		a := rand32(r, sh[0], sh[1], 0.5)
		b := rand32(r, sh[1], sh[2], 0.1)
		got := New32(sh[0], sh[2])
		MatMulF32(got, a, b, nil)
		want := goldenF32(a, b)
		if i, ok := bitsEqual32(got, want); !ok {
			t.Fatalf("shape %v: kernel %s differs from golden reference at flat index %d: %x vs %x",
				sh, F32Kernel(), i, math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]))
		}
	}
}

// TestFMA32SingleRounding sanity-checks the reference primitive itself:
// a*b+c with one rounding must beat multiply-then-add on a case built to
// expose double rounding.
func TestFMA32SingleRounding(t *testing.T) {
	if F32Kernel() == "generic" {
		t.Skip("fma32 requires FMA hardware")
	}
	a := float32(1 + 0x1p-12)
	got := fma32(a, a, -1)
	want := float32(math.FMA(float64(a), float64(a), -1)) // exact: fits float64
	if got != want {
		t.Fatalf("fma32(%g, %g, -1) = %g, want %g", a, a, got, want)
	}
	if mulAdd := a*a - 1; got == mulAdd {
		t.Fatalf("fma32 indistinguishable from multiply-then-add on %g", a)
	}
}
