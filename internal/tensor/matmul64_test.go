package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// refMatMul is the scalar reference for MatMul's summation contract: the
// plain (i, k, j) axpy loop, skipping exact-zero a elements.
func refMatMul(dst, a, b *Matrix) {
	for i := 0; i < a.Rows; i++ {
		dRow := dst.Row(i)
		for j := range dRow {
			dRow[j] = 0
		}
		for k, av := range a.Row(i) {
			if av == 0 {
				continue
			}
			for j, bv := range b.Row(k) {
				dRow[j] += av * bv
			}
		}
	}
}

// refMatMulBT is the scalar reference for MatMulBT: one dot product per
// output element, terms in ascending k.
func refMatMulBT(dst, a, b *Matrix) {
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			bRow := b.Row(j)
			sum := 0.0
			for k, av := range a.Row(i) {
				sum += av * bRow[k]
			}
			dst.Set(i, j, sum)
		}
	}
}

// hardValue draws a value that makes summation order visible in the bits:
// a sign and a magnitude spread over 1e-4..1e4, with some subnormals.
func hardValue(r *rand.Rand) float64 {
	v := math.Pow(10, -4+8*r.Float64())
	if r.Intn(16) == 0 {
		v = math.SmallestNonzeroFloat64 * float64(1+r.Intn(1<<20))
	}
	if r.Intn(2) == 0 {
		v = -v
	}
	return v
}

// hardMatrix fills a rows×cols matrix with hardValue draws and roughly a
// third exact zeros, half of them −0.
func hardMatrix(r *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		switch r.Intn(6) {
		case 0:
		case 1:
			m.Data[i] = math.Copysign(0, -1)
		default:
			m.Data[i] = hardValue(r)
		}
	}
	return m
}

// sparseRows zeroes entries of a so that row i keeps 4q+i%4 non-zero
// values for a random q: across rows, MatMul's four-term passes leave
// every count of 0-3 non-zero k over.
func sparseRows(r *rand.Rand, a *Matrix) {
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		var nz []int
		for k, v := range row {
			if v != 0 {
				nz = append(nz, k)
			}
		}
		keep := 4*r.Intn(len(nz)/4+1) + i%4
		if keep > len(nz) {
			keep -= 4
		}
		r.Shuffle(len(nz), func(x, y int) { nz[x], nz[y] = nz[y], nz[x] })
		for _, k := range nz[max(keep, 0):] {
			row[k] = 0
		}
	}
}

// firstBitsDiff returns the index of the first element whose bits differ,
// or -1.
func firstBitsDiff(got, want *Matrix) int {
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			return i
		}
	}
	return -1
}

// TestMatMul64KernelsKeepBits pins the float64 kernels' summation
// contract: the blocked MatMul and MatMulBT equal the scalar reference
// loops bit for bit on shapes that reach every tail (rows mod 4, MatMulBT's
// odd last column, MatMul's 0-3 leftover non-zero k) and on values where a
// reordered or dropped term changes the result. The test first checks that
// its data has that power: a reference that adds the terms in reverse, or
// drops one, must differ somewhere.
func TestMatMul64KernelsKeepBits(t *testing.T) {
	r := rand.New(rand.NewSource(64))
	for trial := 0; trial < 300; trial++ {
		m, k, n := 1+r.Intn(11), 1+r.Intn(40), 1+r.Intn(11)
		if trial%50 == 0 {
			m, k, n = 9, 491, 67 // one wide inner dimension per pass
		}
		a, bt := hardMatrix(r, m, k), hardMatrix(r, n, k)
		sparseRows(r, a)
		b := bt.Transpose()

		want, got := New(m, n), New(m, n)
		got.Fill(math.NaN()) // both kernels must overwrite dst
		refMatMul(want, a, b)
		MatMul(got, a, b)
		if i := firstBitsDiff(got, want); i >= 0 {
			t.Fatalf("trial %d MatMul %dx%dx%d: element %d is %v, reference %v",
				trial, m, k, n, i, got.Data[i], want.Data[i])
		}

		got.Fill(math.NaN())
		refMatMulBT(want, a, bt)
		MatMulBT(got, a, bt)
		if i := firstBitsDiff(got, want); i >= 0 {
			t.Fatalf("trial %d MatMulBT %dx%dx%d: element %d is %v, reference %v",
				trial, m, k, n, i, got.Data[i], want.Data[i])
		}
	}

	// Sensitivity: on the same kind of data, adding the terms in reverse
	// order or dropping one term must change some bits.
	a, bt := hardMatrix(r, 8, 64), hardMatrix(r, 8, 64)
	want := New(8, 8)
	refMatMulBT(want, a, bt)
	rev, drop := New(8, 8), New(8, 8)
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			aRow, bRow := a.Row(i), bt.Row(j)
			s := 0.0
			for k := len(aRow) - 1; k >= 0; k-- {
				s += aRow[k] * bRow[k]
			}
			rev.Set(i, j, s)
			s = 0
			for k := range aRow[:len(aRow)-1] {
				s += aRow[k] * bRow[k]
			}
			drop.Set(i, j, s)
		}
	}
	if firstBitsDiff(rev, want) < 0 || firstBitsDiff(drop, want) < 0 {
		t.Fatal("test data cannot tell a reordered or dropped term from the contract order")
	}
}
