package tensor

import (
	"fmt"
	"runtime"
	"sync"
)

// MatMulF32 computes dst = a × b in float32 and then, when epilogue is
// non-nil, runs epilogue in place over each row shard's output: a
// contiguous run of whole dst rows, handed over right after the shard's
// kernels write it and on the goroutine that wrote it, so the step that
// follows the product (nn's bias add and activation) reads rows still hot
// in cache. Shapes must be compatible and dst must be a.Rows × b.Cols; dst
// may not alias a or b.
//
// This is the inference hot path's kernel: on amd64 CPUs with AVX2+FMA it
// dispatches to register-tiled assembly (an AVX-512 4-row×64-column tile
// when the CPU has it, an AVX2 2-row×32-column tile otherwise) that keeps
// every accumulator resident in vector registers and shares each loaded
// panel of b across all rows of the tile; elsewhere it runs the same
// cache-friendly (i, k, j) axpy ordering as the float64 MatMul. Large
// products shard output rows across GOMAXPROCS goroutines; row shards
// write disjoint memory, and the per-element operation sequence is
// independent of the sharding, so parallelism cannot change the bits.
//
// Rounding contract (pinned by the package's golden tests): on the
// assembly path, output column j < b.Cols&^31 of every row is a fused
// multiply-add accumulation over k in ascending order (one rounding per
// step); the remaining tail columns are scalar multiply-then-add in the
// same order, computed as interleaved independent sums (four rows by two
// columns) that never reorder an element's terms. The AVX-512 and AVX2
// tiles therefore produce bit-identical results — tile shape only
// regroups independent output elements. The portable fallback is
// multiply-then-add throughout (with the float64 kernel's skip of
// exact-zero a elements). Every accumulation starts at +0, so no product
// element is ever −0. Cross-CPU results may differ in the last ulp; all
// user-visible accuracy guarantees are the float32-vs-float64 parity
// thresholds in internal/nn, not bit equality across machines.
func MatMulF32(dst, a, b *Matrix32, epilogue func(rows []float32)) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulF32 inner dims %d != %d", a.Cols, b.Rows))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulF32 dst %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	if a.Rows == 0 || b.Cols == 0 {
		return
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > 1 && a.Rows >= 2*workers && a.Rows*a.Cols*b.Cols >= 2_000_000 {
		matMulF32Parallel(dst, a, b, epilogue, workers)
		return
	}
	matMulF32Shard(dst, a, b, epilogue, 0, a.Rows)
}

// matMulF32Parallel shards output rows across workers.
func matMulF32Parallel(dst, a, b *Matrix32, epilogue func([]float32), workers int) {
	var wg sync.WaitGroup
	chunk := (a.Rows + workers - 1) / workers
	for lo := 0; lo < a.Rows; lo += chunk {
		hi := lo + chunk
		if hi > a.Rows {
			hi = a.Rows
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			matMulF32Shard(dst, a, b, epilogue, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// matMulF32Shard computes dst rows [lo, hi) and runs the epilogue over
// them.
func matMulF32Shard(dst, a, b *Matrix32, epilogue func([]float32), lo, hi int) {
	rows := dst.Data[lo*dst.Cols : hi*dst.Cols]
	if a.Cols == 0 {
		clear(rows)
	} else {
		matMulF32Range(dst, a, b, lo, hi)
	}
	if epilogue != nil {
		epilogue(rows)
	}
}

// matMulF32Generic computes dst rows [lo, hi) of a × b with the portable
// scalar kernel: the float64 MatMul's (i, k, j) axpy ordering, including
// its skip of exact-zero a elements (the paper's ~30%-dense binary
// feature rows make that skip worth real time on hosts without the
// vector kernels).
func matMulF32Generic(dst, a, b *Matrix32, lo, hi int) {
	for i := lo; i < hi; i++ {
		dRow := dst.Row(i)
		for j := range dRow {
			dRow[j] = 0
		}
		aRow := a.Row(i)
		for k, av := range aRow {
			if av == 0 {
				continue
			}
			bRow := b.Row(k)
			for j, bv := range bRow {
				dRow[j] += av * bv
			}
		}
	}
}

// matMulF32ColTail fills dst columns [j0, b.Cols) of rows [lo, hi) — the
// sub-vector-width column tail of the assembly path — with scalar
// multiply-then-add sums over k in ascending order. One sum is a chain of
// dependent adds, so blocks of four rows run eight sums at once, two
// columns each, sharing each load of a and b; a last odd column and the
// rows after the blocks take one sum at a time.
func matMulF32ColTail(dst, a, b *Matrix32, lo, hi, j0 int) {
	n := b.Cols
	pairEnd := n - (n-j0)%2
	blockEnd := lo + (hi-lo)&^3
	for i := lo; i < blockEnd; i += 4 {
		a0, a1, a2, a3 := a.Row(i), a.Row(i+1), a.Row(i+2), a.Row(i+3)
		d0, d1, d2, d3 := dst.Row(i), dst.Row(i+1), dst.Row(i+2), dst.Row(i+3)
		for j := j0; j < pairEnd; j += 2 {
			var s00, s01, s10, s11, s20, s21, s30, s31 float32
			off := j
			for k, x0 := range a0 {
				x1, x2, x3 := a1[k], a2[k], a3[k]
				b0, b1 := b.Data[off], b.Data[off+1]
				s00 += x0 * b0
				s01 += x0 * b1
				s10 += x1 * b0
				s11 += x1 * b1
				s20 += x2 * b0
				s21 += x2 * b1
				s30 += x3 * b0
				s31 += x3 * b1
				off += n
			}
			d0[j], d0[j+1] = s00, s01
			d1[j], d1[j+1] = s10, s11
			d2[j], d2[j+1] = s20, s21
			d3[j], d3[j+1] = s30, s31
		}
	}
	for i := lo; i < hi; i++ {
		aRow, dRow := a.Row(i), dst.Row(i)
		j := j0
		if i < blockEnd {
			j = pairEnd
		}
		for ; j < n; j++ {
			var acc float32
			for k, av := range aRow {
				acc += av * b.Data[k*n+j]
			}
			dRow[j] = acc
		}
	}
}
