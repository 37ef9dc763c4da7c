package nn

import (
	"math"
	"sync"
	"testing"

	"malevade/internal/tensor"
)

// parityInput builds a batch of paper-shaped feature rows: 0/1 API-call
// indicators at roughly 30% density (xorshift-style LCG for determinism).
func parityInput(seed uint64, rows, cols int) *tensor.Matrix {
	x := tensor.New(rows, cols)
	s := seed
	for i := range x.Data {
		s = s*6364136223846793005 + 1442695040888963407
		if s%10 < 3 {
			x.Data[i] = 1
		}
	}
	return x
}

// planProbs runs the plan and widens logits through the same temperature
// softmax the server applies.
func planProbs(p *Plan32, x *tensor.Matrix, temp float64) *tensor.Matrix {
	logits := p.Logits(tensor.ToFloat32(x))
	out := tensor.New(logits.Rows, logits.Cols)
	row64 := make([]float64, logits.Cols)
	for i := 0; i < logits.Rows; i++ {
		for j, v := range logits.Row(i) {
			row64[j] = float64(v)
		}
		SoftmaxRow(row64, out.Row(i), temp)
	}
	return out
}

// checkParity asserts the reduced-precision probabilities track the
// float64 reference: max per-element probability drift within maxDelta,
// and label agreement on every row whose reference verdict is not within
// margin of the decision boundary (rows the float64 path itself would
// call a coin toss are allowed to flip).
func checkParity(t *testing.T, ref, got *tensor.Matrix, maxDelta, margin float64) {
	t.Helper()
	var worst float64
	flips, guarded := 0, 0
	for i := 0; i < ref.Rows; i++ {
		for j := 0; j < ref.Cols; j++ {
			if d := math.Abs(ref.At(i, j) - got.At(i, j)); d > worst {
				worst = d
			}
		}
		if ref.RowArgmax(i) != got.RowArgmax(i) {
			if math.Abs(ref.At(i, 0)-0.5) >= margin {
				flips++
			} else {
				guarded++
			}
		}
	}
	t.Logf("max prob delta %.3g (budget %.3g), boundary-guarded flips %d", worst, maxDelta, guarded)
	if worst > maxDelta {
		t.Fatalf("max probability delta %g exceeds %g", worst, maxDelta)
	}
	if flips > 0 {
		t.Fatalf("%d confident rows (margin %g) changed label", flips, margin)
	}
}

func TestPlan32Float32Parity(t *testing.T) {
	net, err := NewMLP(MLPConfig{Dims: []int{491, 120, 80, 2}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := net.CompileF32()
	if err != nil {
		t.Fatal(err)
	}
	if plan.InDim() != 491 || plan.OutDim() != 2 {
		t.Fatalf("plan metadata: %d %d", plan.InDim(), plan.OutDim())
	}
	for _, temp := range []float64{1, 10} {
		x := parityInput(99, 128, 491)
		checkParity(t, net.Probs(x, temp), planProbs(plan, x, temp), 1e-3, 1e-3)
	}
}

func TestPlan32ActivationsAndDropout(t *testing.T) {
	for _, cfg := range []MLPConfig{
		{Dims: []int{33, 20, 2}, Activation: "sigmoid", Seed: 3},
		{Dims: []int{33, 20, 2}, Activation: "tanh", Seed: 5},
		{Dims: []int{33, 24, 16, 2}, Activation: "relu", DropoutRate: 0.4, Seed: 9},
	} {
		net, err := NewMLP(cfg)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := net.CompileF32()
		if err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		x := parityInput(7, 40, 33)
		checkParity(t, net.Probs(x, 1), planProbs(plan, x, 1), 1e-3, 1e-3)
	}
}

// TestPlan32ConcurrentDeterminism hammers one shared plan from many
// goroutines under the race detector and checks every result is
// bit-identical to a serial run: the kernels' rounding is independent of
// scheduling and workspace pooling.
func TestPlan32ConcurrentDeterminism(t *testing.T) {
	net, err := NewMLP(MLPConfig{Dims: []int{491, 64, 32, 2}, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := net.CompileF32()
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.ToFloat32(parityInput(123, 64, 491))
	want := plan.Logits(x)
	var wg sync.WaitGroup
	diverged := make(chan struct{}, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 25; iter++ {
				got := plan.Logits(x)
				for i := range got.Data {
					if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
						diverged <- struct{}{}
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(diverged)
	if _, ok := <-diverged; ok {
		t.Fatal("concurrent Logits diverged from serial result")
	}
}

func TestPlan32CompileErrors(t *testing.T) {
	net, err := NewMLP(MLPConfig{Dims: []int{4, 3, 2}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A float64 weight beyond float32 range must fail compilation, not
	// silently become ±Inf.
	dense := net.Layers()[0].(*Dense)
	saved := dense.W.Value.At(0, 0)
	dense.W.Value.Set(0, 0, 1e300)
	if _, err := net.CompileF32(); err == nil {
		t.Fatal("expected error for non-representable weight")
	}
	dense.W.Value.Set(0, 0, saved)
	dense.B.Value.Set(0, 0, math.Inf(1))
	if _, err := net.CompileF32(); err == nil {
		t.Fatal("expected error for non-representable bias")
	}
	dense.B.Value.Set(0, 0, 0)
	if _, err := net.CompileF32(); err != nil {
		t.Fatalf("restored network must compile: %v", err)
	}

	// A layer kind without a float32 lowering must be rejected.
	odd, err := NewNetwork(3, &opaqueLayer{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := odd.CompileF32(); err == nil {
		t.Fatal("expected error for unknown layer kind")
	}
}

// opaqueLayer is a Layer the compiler has never heard of.
type opaqueLayer struct{}

func (*opaqueLayer) InferInto(dst, x *tensor.Matrix)              { copy(dst.Data, x.Data) }
func (*opaqueLayer) Backward(dx, dy, _, _ *tensor.Matrix, _ bool) { copy(dx.Data, dy.Data) }
func (*opaqueLayer) Params() []*Param                             { return nil }
func (*opaqueLayer) OutDim(inDim int) (int, error)                { return inDim, nil }

func TestPlan32InputWidthPanics(t *testing.T) {
	net, _ := NewMLP(MLPConfig{Dims: []int{4, 3, 2}, Seed: 1})
	plan, err := net.CompileF32()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on width mismatch")
		}
	}()
	plan.Logits(tensor.New32(2, 5))
}

// BenchmarkPlan32Logits / BenchmarkNetworkLogits are the inference halves
// of BENCH_infer.json: the same bench model and batch size as the
// committed client baseline (internal/client BenchmarkDirectScore).
func benchPlanNet(b *testing.B) *Network {
	b.Helper()
	net, err := NewMLP(MLPConfig{Dims: []int{491, 512, 256, 2}, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	return net
}

func BenchmarkNetworkLogits(b *testing.B) {
	net := benchPlanNet(b)
	x := parityInput(99, 256, 491)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Logits(x)
	}
	b.ReportMetric(float64(256)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

func BenchmarkPlan32Logits(b *testing.B) {
	net := benchPlanNet(b)
	x := tensor.ToFloat32(parityInput(99, 256, 491))
	plan, err := net.CompileF32()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("float32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			plan.Logits(x)
		}
		b.ReportMetric(float64(256)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
	})
}
