package nn

import (
	"math"
	"testing"

	"malevade/internal/rng"
	"malevade/internal/tensor"
)

// Numerical gradient checking: the single most important test in this
// package. If analytic backprop matches central finite differences on random
// networks, every consumer (training, JSMA saliency, distillation) inherits
// correctness.

// numericalParamGrad estimates dLoss/dParam[idx] by central differences.
func numericalParamGrad(net *Network, loss Loss, x, targets *tensor.Matrix, p *Param, idx int) float64 {
	const h = 1e-5
	orig := p.Value.Data[idx]
	p.Value.Data[idx] = orig + h
	lPlus := loss.Forward(net.Forward(x, false), targets)
	p.Value.Data[idx] = orig - h
	lMinus := loss.Forward(net.Forward(x, false), targets)
	p.Value.Data[idx] = orig
	return (lPlus - lMinus) / (2 * h)
}

func analyticParamGrads(net *Network, loss Loss, x, targets *tensor.Matrix) {
	for _, p := range net.Params() {
		p.Grad.Zero()
	}
	logits := net.Forward(x, false)
	grad := loss.Gradient(logits, targets)
	net.Backward(grad)
}

func checkNetGradients(t *testing.T, net *Network, loss Loss, x, targets *tensor.Matrix) {
	t.Helper()
	analyticParamGrads(net, loss, x, targets)
	// Snapshot analytic grads before finite differences disturb caches.
	type snap struct {
		p    *Param
		grad []float64
	}
	var snaps []snap
	for _, p := range net.Params() {
		g := make([]float64, len(p.Grad.Data))
		copy(g, p.Grad.Data)
		snaps = append(snaps, snap{p: p, grad: g})
	}
	r := rng.New(99)
	for si, s := range snaps {
		// Probe a handful of random coordinates per parameter tensor.
		probes := 6
		if len(s.grad) < probes {
			probes = len(s.grad)
		}
		for k := 0; k < probes; k++ {
			idx := r.Intn(len(s.grad))
			want := numericalParamGrad(net, loss, x, targets, s.p, idx)
			got := s.grad[idx]
			scale := math.Max(math.Abs(want), math.Abs(got))
			if scale < 1e-7 {
				continue
			}
			if math.Abs(got-want)/scale > 1e-4 {
				t.Errorf("param %d (%s) idx %d: analytic %v vs numeric %v", si, s.p.Name, idx, got, want)
			}
		}
	}
}

func TestGradientCheckReLUNet(t *testing.T) {
	net, err := NewMLP(MLPConfig{Dims: []int{5, 8, 7, 3}, Activation: "relu", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(2)
	x := tensor.New(6, 5)
	for i := range x.Data {
		x.Data[i] = r.NormFloat64()
	}
	targets := OneHot([]int{0, 1, 2, 0, 1, 2}, 3)
	checkNetGradients(t, net, NewSoftmaxCrossEntropy(1), x, targets)
}

func TestGradientCheckSigmoidNet(t *testing.T) {
	net, err := NewMLP(MLPConfig{Dims: []int{4, 6, 2}, Activation: "sigmoid", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(4)
	x := tensor.New(5, 4)
	for i := range x.Data {
		x.Data[i] = r.NormFloat64()
	}
	targets := OneHot([]int{0, 1, 0, 1, 0}, 2)
	checkNetGradients(t, net, NewSoftmaxCrossEntropy(1), x, targets)
}

func TestGradientCheckTanhNetMSE(t *testing.T) {
	net, err := NewMLP(MLPConfig{Dims: []int{3, 5, 2}, Activation: "tanh", Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(6)
	x := tensor.New(4, 3)
	targets := tensor.New(4, 2)
	for i := range x.Data {
		x.Data[i] = r.NormFloat64()
	}
	for i := range targets.Data {
		targets.Data[i] = r.NormFloat64()
	}
	checkNetGradients(t, net, MSE{}, x, targets)
}

func TestGradientCheckTanhNetCE(t *testing.T) {
	// Tanh under the classification loss (the MSE variant above probes a
	// different gradient path through the loss).
	net, err := NewMLP(MLPConfig{Dims: []int{5, 9, 6, 3}, Activation: "tanh", Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(32)
	x := tensor.New(6, 5)
	for i := range x.Data {
		x.Data[i] = r.NormFloat64()
	}
	targets := OneHot([]int{0, 1, 2, 2, 1, 0}, 3)
	checkNetGradients(t, net, NewSoftmaxCrossEntropy(1), x, targets)
}

func TestGradientCheckDropoutNetInference(t *testing.T) {
	// A dropout-bearing stack in inference mode: the layer must be an
	// exact identity in both directions, so the full-network gradient
	// check has to pass as if the layer were absent. This pins the
	// mask-nil pass-through the scratch-state refactor relies on.
	net, err := NewMLP(MLPConfig{Dims: []int{4, 8, 6, 2}, Activation: "tanh", DropoutRate: 0.5, Seed: 33})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(34)
	x := tensor.New(5, 4)
	for i := range x.Data {
		x.Data[i] = r.NormFloat64()
	}
	targets := OneHot([]int{0, 1, 0, 1, 1}, 2)
	checkNetGradients(t, net, NewSoftmaxCrossEntropy(1), x, targets)
}

// TestDropoutTrainingGradient pins the training-mode dropout gradient to
// the mask drawn at Forward time: out = x⊙m, so dLoss/dx must be g⊙m with
// m[i] ∈ {0, 1/(1-rate)}, and the keep fraction must match the rate.
func TestDropoutTrainingGradient(t *testing.T) {
	const rate = 0.3
	net, err := NewNetwork(25, NewDropout(rate, rng.New(35)))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(36)
	x := tensor.New(20, 25)
	for i := range x.Data {
		x.Data[i] = 1 + r.Float64() // bounded away from 0 so masks are visible
	}
	out := net.Forward(x, true)

	scale := 1 / (1 - rate)
	kept := 0
	mask := make([]float64, len(x.Data))
	for i, v := range out.Data {
		switch v {
		case 0:
			mask[i] = 0
		case x.Data[i] * scale:
			mask[i] = scale
			kept++
		default:
			t.Fatalf("output %d is %v, want 0 or %v (inverted dropout)", i, v, x.Data[i]*scale)
		}
	}
	if frac := float64(kept) / float64(len(x.Data)); frac < 0.55 || frac > 0.85 {
		t.Fatalf("keep fraction %.3f implausible for rate %v", frac, rate)
	}

	g := tensor.New(20, 25)
	for i := range g.Data {
		g.Data[i] = r.NormFloat64()
	}
	back := net.Backward(g)
	for i, v := range back.Data {
		if want := g.Data[i] * mask[i]; v != want {
			t.Fatalf("grad %d = %v, want %v (same mask as Forward)", i, v, want)
		}
	}

	// Inference mode must reset to exact pass-through in both directions.
	inf := net.Forward(x, false)
	for i, v := range inf.Data {
		if v != x.Data[i] {
			t.Fatalf("inference Forward should be the identity: %d is %v, want %v", i, v, x.Data[i])
		}
	}
	back = net.Backward(g)
	for i, v := range back.Data {
		if v != g.Data[i] {
			t.Fatalf("inference Backward should pass the gradient through: %d is %v, want %v", i, v, g.Data[i])
		}
	}
}

func TestGradientCheckHighTemperature(t *testing.T) {
	// Distillation trains at T=50; the gradient must stay exact there.
	net, err := NewMLP(MLPConfig{Dims: []int{4, 6, 2}, Activation: "relu", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(8)
	x := tensor.New(5, 4)
	for i := range x.Data {
		x.Data[i] = r.NormFloat64() * 3
	}
	// Soft targets, as in distillation.
	targets := tensor.New(5, 2)
	for i := 0; i < 5; i++ {
		p := 0.2 + 0.6*r.Float64()
		targets.Set(i, 0, p)
		targets.Set(i, 1, 1-p)
	}
	checkNetGradients(t, net, NewSoftmaxCrossEntropy(50), x, targets)
}

// TestClassGradientNumerical validates the JSMA forward derivative:
// ClassGradient must match finite differences of Probs.
func TestClassGradientNumerical(t *testing.T) {
	net, err := NewMLP(MLPConfig{Dims: []int{6, 10, 2}, Activation: "relu", Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(12)
	x := tensor.New(3, 6)
	for i := range x.Data {
		x.Data[i] = r.Float64()
	}
	const h = 1e-6
	for _, class := range []int{0, 1} {
		grad, _ := net.ClassGradient(x, class, 1)
		for i := 0; i < x.Rows; i++ {
			for j := 0; j < x.Cols; j++ {
				orig := x.At(i, j)
				x.Set(i, j, orig+h)
				pPlus := net.Probs(x, 1).At(i, class)
				x.Set(i, j, orig-h)
				pMinus := net.Probs(x, 1).At(i, class)
				x.Set(i, j, orig)
				want := (pPlus - pMinus) / (2 * h)
				got := grad.At(i, j)
				if math.Abs(got-want) > 1e-4*math.Max(1, math.Abs(want)) {
					t.Fatalf("class %d sample %d feature %d: analytic %v vs numeric %v",
						class, i, j, got, want)
				}
			}
		}
	}
}

// TestClassGradientLeavesParamsClean verifies the documented contract that
// ClassGradient does not leak parameter-gradient side effects.
func TestClassGradientLeavesParamsClean(t *testing.T) {
	net, err := NewMLP(MLPConfig{Dims: []int{4, 5, 2}, Activation: "relu", Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(2, 4)
	x.Fill(0.5)
	net.ClassGradient(x, 0, 1)
	for _, p := range net.Params() {
		for _, g := range p.Grad.Data {
			if g != 0 {
				t.Fatal("ClassGradient left non-zero parameter gradients")
			}
		}
	}
}

// TestClassGradientBatchRowsMatchSingleRows pins the row independence that
// batched crafting relies on: JSMA takes one gradient over every active
// sample and black-box augmentation one per class over the whole block, so
// a batch's ClassGradient must equal each row's own, bit for bit.
func TestClassGradientBatchRowsMatchSingleRows(t *testing.T) {
	for _, act := range []string{"relu", "sigmoid", "tanh"} {
		net, err := NewMLP(MLPConfig{Dims: []int{5, 7, 6, 3}, Activation: act, DropoutRate: 0.2, Seed: 17})
		if err != nil {
			t.Fatal(err)
		}
		x := randomInput(18, 6, 5)
		for c := 0; c < 3; c++ {
			batch, _ := net.ClassGradient(x, c, 2)
			for i := 0; i < x.Rows; i++ {
				row := tensor.FromSlice(1, 5, append([]float64(nil), x.Row(i)...))
				single, _ := net.ClassGradient(row, c, 2)
				for j, v := range single.Data {
					if got := batch.At(i, j); got != v {
						t.Fatalf("%s class %d row %d feature %d: batch %v, alone %v", act, c, i, j, got, v)
					}
				}
			}
		}
	}
}

// TestClassGradientLogitsMatchLogits pins what JSMA's per-iteration
// evasion check relies on: the logits ClassGradient returns are those of
// Logits on the same batch, bit for bit, for every activation and with
// dropout layers in the stack.
func TestClassGradientLogitsMatchLogits(t *testing.T) {
	for _, act := range []string{"relu", "sigmoid", "tanh"} {
		net, err := NewMLP(MLPConfig{Dims: []int{5, 7, 6, 3}, Activation: act, DropoutRate: 0.2, Seed: 23})
		if err != nil {
			t.Fatal(err)
		}
		x := randomInput(24, 6, 5)
		want := net.Logits(x)
		for c := 0; c < 3; c++ {
			_, got := net.ClassGradient(x, c, 2)
			if !got.SameShape(want) {
				t.Fatalf("%s class %d: logits %dx%d, want %dx%d", act, c, got.Rows, got.Cols, want.Rows, want.Cols)
			}
			for i, v := range want.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(v) {
					t.Fatalf("%s class %d logit %d: %v, Logits %v", act, c, i, got.Data[i], v)
				}
			}
		}
	}
}

// Softmax Jacobian identity: rows of ClassGradient summed over classes must
// vanish (probabilities sum to 1, so their gradients sum to 0).
func TestClassGradientsSumToZero(t *testing.T) {
	net, err := NewMLP(MLPConfig{Dims: []int{4, 6, 3}, Activation: "tanh", Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(20)
	x := tensor.New(4, 4)
	for i := range x.Data {
		x.Data[i] = r.NormFloat64()
	}
	sum := tensor.New(4, 4)
	for c := 0; c < 3; c++ {
		g, _ := net.ClassGradient(x, c, 1)
		tensor.AXPY(sum, 1, g)
	}
	if m := sum.MaxAbs(); m > 1e-10 {
		t.Fatalf("Σ_c ∂F_c/∂x = %v, want 0", m)
	}
}

// BenchmarkClassGradient times one JSMA step's forward derivative on the
// 491-512-256-2 target shape with 4 rows.
func BenchmarkClassGradient(b *testing.B) {
	net, err := NewMLP(MLPConfig{Dims: []int{491, 512, 256, 2}, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	x := randomInput(2, 4, 491)
	b.ReportAllocs()
	for b.Loop() {
		net.ClassGradient(x, 0, 1)
	}
}
