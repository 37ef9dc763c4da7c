package nn

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"malevade/internal/rng"
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

// unfusedForward32 is the scalar reference for a float32 plan. Layer by
// layer it runs the kernel's product alone (tensor.MatMulF32 with no
// epilogue), then a float32 bias add, then the activation as code
// separate from the product: ReLU as a branch, sigmoid and tanh through
// their float64 functions; dropout is the identity. It returns every
// layer's output, and counts in seen the special values that reach an
// activation's input, keyed by activation and class.
func unfusedForward32(net *Network, x *tensor.Matrix32, seen map[string]int) []*tensor.Matrix32 {
	outs := make([]*tensor.Matrix32, 0, len(net.Layers()))
	h := x
	for _, l := range net.Layers() {
		var out *tensor.Matrix32
		switch l := l.(type) {
		case *Dense:
			w := tensor.ToFloat32(l.W.Value)
			out = tensor.New32(h.Rows, w.Cols)
			tensor.MatMulF32(out, h, w, nil)
			b := tensor.ToFloat32(l.B.Value).Data
			for i := 0; i < out.Rows; i++ {
				row := out.Row(i)
				for j := range row {
					row[j] += b[j]
				}
			}
		case *Dropout:
			out = h
		default:
			out = tensor.New32(h.Rows, h.Cols)
			name := fmt.Sprintf("%T", l)
			for i, v := range h.Data {
				if class := specialClass(v); class != "" {
					seen[name+" "+class]++
				}
				switch l.(type) {
				case *ReLU:
					if v > 0 {
						out.Data[i] = v
					} else {
						out.Data[i] = 0
					}
				case *Sigmoid:
					out.Data[i] = float32(sigmoid(float64(v)))
				case *Tanh:
					out.Data[i] = float32(tanh(float64(v)))
				}
			}
		}
		outs = append(outs, out)
		h = out
	}
	return outs
}

func specialClass(v float32) string {
	switch {
	case v != v:
		return "NaN"
	case math.IsInf(float64(v), 1):
		return "+Inf"
	case math.IsInf(float64(v), -1):
		return "-Inf"
	case math.Float32bits(v) == 0x80000000:
		return "-0"
	}
	return ""
}

// extremeInput32 builds rows of ±0 and of values near ±1e37 whose signs
// follow the first layer's weights w, so that the model's sums overflow:
// a row aligned with one weight column drives that unit to ±Inf, a row
// aligned with the sum of three columns drives all three to +Inf, and the
// next ReLU layer then adds +Inf and -Inf terms into NaN. Zero rows carry
// −0 into an activation that no dense layer precedes. (A dense layer's
// sums start at +0, so it never outputs −0 itself.)
func extremeInput32(w *tensor.Matrix, rows int, seed uint64) *tensor.Matrix32 {
	x := tensor.New32(rows, w.Rows)
	r := rng.New(seed)
	negZero := math.Float32frombits(0x80000000)
	aligned := func(row []float32, mag float32, cols ...int) {
		for k := range row {
			var sum float64
			for _, c := range cols {
				sum += w.At(k, c%w.Cols)
			}
			row[k] = mag
			if sum < 0 {
				row[k] = -mag
			}
		}
	}
	for i := 0; i < rows; i++ {
		row := x.Row(i)
		switch i % 6 {
		case 0:
			aligned(row, 8e37, i)
		case 1:
			for k := range row {
				row[k] = negZero
			}
		case 2:
			aligned(row, -8e37, i)
		case 3:
			aligned(row, 2e37, i, i+1, i+2)
		case 4: // ±1e37, a third of them ±0
			for k := range row {
				switch r.Intn(6) {
				case 0:
				case 1:
					row[k] = negZero
				case 2, 3:
					row[k] = 1e37
				default:
					row[k] = -1e37
				}
			}
		case 5:
			for k := range row {
				if r.Intn(2) == 0 {
					row[k] = negZero
				}
			}
		}
	}
	return x
}

// TestPlan32MatchesUnfusedBits pins the fused plan to the unfused scalar
// reference bit for bit, on every prefix of each stack (so every step's
// output is compared, not only the logits: a −0 that a ReLU lets through
// vanishes in the next layer's sums), at batch sizes that cover the
// tiles' row remainders and the sharded products. The inputs drive
// activation inputs to −0, ±Inf and NaN, and the test checks that they
// do. The NaNs that arithmetic makes here all carry one sign, so
// TestReLU32MatchesBranch covers NaNs of the other.
func TestPlan32MatchesUnfusedBits(t *testing.T) {
	r := rng.New(17)
	leading, err := NewNetwork(33, NewReLU(), NewDense(33, 24, r), NewDropout(0.4, r), NewReLU(), NewTanh(),
		NewDense(24, 16, r), NewSigmoid(), NewReLU(), NewDense(16, 2, r))
	if err != nil {
		t.Fatal(err)
	}
	type stack struct {
		name string
		net  *Network
	}
	nets := []stack{{"activation chains", leading}}
	for _, cfg := range []MLPConfig{
		{Dims: []int{491, 512, 256, 2}, Seed: 7},
		{Dims: []int{33, 20, 2}, Activation: "sigmoid", Seed: 3},
		{Dims: []int{33, 20, 2}, Activation: "tanh", Seed: 5},
		{Dims: []int{33, 24, 16, 2}, Activation: "relu", DropoutRate: 0.4, Seed: 9},
	} {
		net, err := NewMLP(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, stack{fmt.Sprint(cfg.Dims, cfg.Activation, cfg.DropoutRate), net})
	}
	seen := map[string]int{}
	for _, st := range nets {
		name, net := st.name, st.net
		var first *tensor.Matrix
		for _, l := range net.Layers() {
			if d, ok := l.(*Dense); ok {
				// Non-zero biases, so the bias add's rounding is in play.
				for j := range d.B.Value.Data {
					d.B.Value.Data[j] = r.Normal(0, 0.1)
				}
				if first == nil {
					first = d.W.Value
				}
			}
		}
		layers := net.Layers()
		prefixes := make([]*Plan32, len(layers))
		for l := range layers {
			sub, err := NewNetwork(net.InDim(), layers[:l+1]...)
			if err != nil {
				t.Fatal(err)
			}
			if prefixes[l], err = sub.CompileF32(); err != nil {
				t.Fatalf("%s: prefix %d: %v", name, l, err)
			}
		}
		for _, rows := range []int{1, 2, 3, 4, 5, 7, 33, 256} {
			x := extremeInput32(first, rows, uint64(rows))
			want := unfusedForward32(net, x, seen)
			for l, plan := range prefixes {
				got := plan.Logits(x)
				for i, v := range got.Data {
					if math.Float32bits(v) != math.Float32bits(want[l].Data[i]) {
						t.Fatalf("%s, %d rows, through layer %d (%T): element %d is %g (%#08x), unfused %g (%#08x)",
							name, rows, l, layers[l], i, v, math.Float32bits(v), want[l].Data[i], math.Float32bits(want[l].Data[i]))
					}
				}
			}
		}
	}
	t.Logf("special activation inputs: %v", seen)
	for _, key := range []string{"*nn.ReLU -0", "*nn.ReLU +Inf", "*nn.ReLU -Inf", "*nn.ReLU NaN",
		"*nn.Sigmoid +Inf", "*nn.Sigmoid -Inf", "*nn.Tanh +Inf", "*nn.Tanh -Inf"} {
		if seen[key] == 0 {
			t.Errorf("no %s input: the test inputs no longer reach that case", key)
		}
	}
}

// TestReLU32MatchesBranch checks the branchless ReLU against the branch on
// every sign and class of float32, NaN payloads included.
func TestReLU32MatchesBranch(t *testing.T) {
	for _, u := range []uint32{
		0x00000000, 0x80000000, // ±0
		0x00000001, 0x80000001, 0x007fffff, 0x807fffff, // subnormals
		0x3f800000, 0xbf800000, 0x7f7fffff, 0xff7fffff, // ±1, ±MaxFloat32
		0x7f800000, 0xff800000, // ±Inf
		0x7f800001, 0x7fc00000, 0x7fffffff, 0xff800001, 0xffc00000, 0xffffffff, // NaNs
	} {
		v := math.Float32frombits(u)
		want := float32(0)
		if v > 0 {
			want = v
		}
		if got := relu32(v); math.Float32bits(got) != math.Float32bits(want) {
			t.Errorf("relu32(%#08x) = %#08x, want %#08x", u, math.Float32bits(got), math.Float32bits(want))
		}
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
