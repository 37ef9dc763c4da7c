package nn

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"malevade/internal/rng"
	"malevade/internal/tensor"
)

func TestSoftmaxRowSumsToOne(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(8)
		logits := make([]float64, n)
		for i := range logits {
			logits[i] = r.Normal(0, 10)
		}
		out := make([]float64, n)
		for _, temp := range []float64{0.5, 1, 50} {
			SoftmaxRow(logits, out, temp)
			sum := 0.0
			for _, p := range out {
				if p < 0 || p > 1 {
					return false
				}
				sum += p
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSoftmaxRowStableUnderHugeLogits(t *testing.T) {
	out := make([]float64, 2)
	SoftmaxRow([]float64{1e6, 1e6 - 1}, out, 1)
	if math.IsNaN(out[0]) || math.IsNaN(out[1]) {
		t.Fatal("softmax NaN under huge logits")
	}
	if out[0] <= out[1] {
		t.Fatal("softmax ordering lost")
	}
}

// TestSoftmaxRowLimitSemantics pins the degenerate-logit contract: softmax
// never answers NaN. +Inf logits split the mass evenly among themselves,
// NaN and -Inf logits get zero mass, and a row with nothing informative is
// uniform. These are the rows where the max-shift used to compute
// Inf-Inf = NaN and leak undecodable responses out of the daemon.
func TestSoftmaxRowLimitSemantics(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	cases := []struct {
		name   string
		logits []float64
		want   []float64
	}{
		{"one +Inf wins", []float64{inf, 3}, []float64{1, 0}},
		{"two +Inf split", []float64{inf, inf, -2}, []float64{0.5, 0.5, 0}},
		{"+Inf beats NaN", []float64{nan, inf}, []float64{0, 1}},
		{"NaN gets zero mass", []float64{nan, 0, 0}, []float64{0, 0.5, 0.5}},
		{"all -Inf uniform", []float64{math.Inf(-1), math.Inf(-1)}, []float64{0.5, 0.5}},
		{"all NaN uniform", []float64{nan, nan}, []float64{0.5, 0.5}},
	}
	for _, tc := range cases {
		for _, temp := range []float64{1, 10} {
			out := make([]float64, len(tc.logits))
			SoftmaxRow(tc.logits, out, temp)
			for i, want := range tc.want {
				if out[i] != want {
					t.Fatalf("%s (T=%g): out = %v, want %v", tc.name, temp, out, tc.want)
				}
			}
		}
	}
}

func TestSoftmaxTemperatureFlattens(t *testing.T) {
	logits := []float64{4, 0}
	sharp := make([]float64, 2)
	flat := make([]float64, 2)
	SoftmaxRow(logits, sharp, 1)
	SoftmaxRow(logits, flat, 50)
	if !(flat[0] < sharp[0] && flat[0] > 0.5) {
		t.Fatalf("T=50 should flatten toward uniform: sharp=%v flat=%v", sharp, flat)
	}
}

func TestOneHot(t *testing.T) {
	m := OneHot([]int{1, 0, 2}, 3)
	want := [][]float64{{0, 1, 0}, {1, 0, 0}, {0, 0, 1}}
	for i, row := range want {
		for j, v := range row {
			if m.At(i, j) != v {
				t.Fatalf("OneHot row %d = %v", i, m.Row(i))
			}
		}
	}
}

func TestOneHotPanicsOnBadLabel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	OneHot([]int{3}, 3)
}

func TestNewMLPValidation(t *testing.T) {
	tests := []struct {
		name string
		cfg  MLPConfig
	}{
		{name: "too few dims", cfg: MLPConfig{Dims: []int{5}}},
		{name: "zero dim", cfg: MLPConfig{Dims: []int{5, 0, 2}}},
		{name: "bad activation", cfg: MLPConfig{Dims: []int{5, 4, 2}, Activation: "gelu"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewMLP(tt.cfg); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestMLPShapes(t *testing.T) {
	net, err := NewMLP(MLPConfig{Dims: []int{491, 1200, 1500, 1300, 2}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if net.InDim() != 491 || net.OutDim() != 2 {
		t.Fatalf("dims %d->%d", net.InDim(), net.OutDim())
	}
	// Table IV parameter count: 491*1200+1200 + 1200*1500+1500 + 1500*1300+1300 + 1300*2+2.
	want := 491*1200 + 1200 + 1200*1500 + 1500 + 1500*1300 + 1300 + 1300*2 + 2
	if got := net.NumParams(); got != want {
		t.Fatalf("NumParams = %d, want %d", got, want)
	}
}

func TestForwardDeterministic(t *testing.T) {
	net, err := NewMLP(MLPConfig{Dims: []int{4, 8, 2}, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(3, 4)
	x.Fill(0.3)
	a := net.Forward(x, false).Clone()
	b := net.Forward(x, false)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("repeated Forward differs")
		}
	}
}

func TestSameSeedSameWeights(t *testing.T) {
	a, _ := NewMLP(MLPConfig{Dims: []int{4, 8, 2}, Seed: 42})
	b, _ := NewMLP(MLPConfig{Dims: []int{4, 8, 2}, Seed: 42})
	ap, bp := a.Params(), b.Params()
	for i := range ap {
		for k := range ap[i].Value.Data {
			if ap[i].Value.Data[k] != bp[i].Value.Data[k] {
				t.Fatal("same seed produced different weights")
			}
		}
	}
}

func TestProbsRowsSumToOne(t *testing.T) {
	net, _ := NewMLP(MLPConfig{Dims: []int{4, 8, 3}, Seed: 7})
	r := rng.New(8)
	x := tensor.New(10, 4)
	for i := range x.Data {
		x.Data[i] = r.NormFloat64()
	}
	p := net.Probs(x, 1)
	for i := 0; i < p.Rows; i++ {
		sum := 0.0
		for _, v := range p.Row(i) {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
}

func TestDropoutInferenceIsIdentity(t *testing.T) {
	net, err := NewNetwork(6, NewDropout(0.5, rng.New(1)))
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(4, 6)
	x.Fill(1)
	out := net.Forward(x, false)
	for _, v := range out.Data {
		if v != 1 {
			t.Fatal("dropout altered inference output")
		}
	}
}

func TestDropoutTrainingMasks(t *testing.T) {
	net, err := NewNetwork(100, NewDropout(0.5, rng.New(2)))
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(10, 100)
	x.Fill(1)
	out := net.Forward(x, true)
	zeros := 0
	for _, v := range out.Data {
		switch v {
		case 0:
			zeros++
		case 2: // 1/(1-0.5) scaling
		default:
			t.Fatalf("unexpected dropout output %v", v)
		}
	}
	frac := float64(zeros) / float64(len(out.Data))
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("dropout zeroed %.2f of activations, want ~0.5", frac)
	}
}

func TestTrainLearnsLinearlySeparable(t *testing.T) {
	// Two Gaussian blobs in 4-D; a small MLP must reach >95% train accuracy.
	r := rng.New(3)
	const n = 400
	x := tensor.New(n, 4)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % 2
		labels[i] = c
		mean := -1.0
		if c == 1 {
			mean = 1.0
		}
		for j := 0; j < 4; j++ {
			x.Set(i, j, r.Normal(mean, 0.7))
		}
	}
	net, err := NewMLP(MLPConfig{Dims: []int{4, 16, 2}, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	err = Train(net, x, OneHot(labels, 2), TrainConfig{
		Epochs:    30,
		BatchSize: 32,
		Seed:      5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(net, x, labels); acc < 0.95 {
		t.Fatalf("train accuracy %.3f < 0.95", acc)
	}
}

func TestTrainLearnsXOR(t *testing.T) {
	// XOR requires the hidden layer to matter — catches dead backprop.
	x := tensor.FromRows([][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}})
	labels := []int{0, 1, 1, 0}
	net, err := NewMLP(MLPConfig{Dims: []int{2, 16, 2}, Activation: "tanh", Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	err = Train(net, x, OneHot(labels, 2), TrainConfig{
		Epochs:    400,
		BatchSize: 4,
		Optimizer: NewAdam(0.01),
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(net, x, labels); acc != 1 {
		t.Fatalf("XOR accuracy %.2f, want 1.0", acc)
	}
}

func TestTrainValidation(t *testing.T) {
	net, _ := NewMLP(MLPConfig{Dims: []int{2, 4, 2}, Seed: 1})
	x := tensor.New(4, 2)
	y := OneHot([]int{0, 1, 0, 1}, 2)
	tests := []struct {
		name string
		cfg  TrainConfig
		x    *tensor.Matrix
		y    *tensor.Matrix
	}{
		{name: "zero epochs", cfg: TrainConfig{Epochs: 0, BatchSize: 2}, x: x, y: y},
		{name: "zero batch", cfg: TrainConfig{Epochs: 1, BatchSize: 0}, x: x, y: y},
		{name: "row mismatch", cfg: TrainConfig{Epochs: 1, BatchSize: 2}, x: x, y: OneHot([]int{0}, 2)},
		{name: "width mismatch", cfg: TrainConfig{Epochs: 1, BatchSize: 2}, x: tensor.New(4, 3), y: y},
		{name: "empty", cfg: TrainConfig{Epochs: 1, BatchSize: 2}, x: tensor.New(0, 2), y: tensor.New(0, 2)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := Train(net, tt.x, tt.y, tt.cfg); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestTrainOnEpochEarlyStop(t *testing.T) {
	net, _ := NewMLP(MLPConfig{Dims: []int{2, 4, 2}, Seed: 1})
	x := tensor.New(8, 2)
	y := OneHot([]int{0, 1, 0, 1, 0, 1, 0, 1}, 2)
	stop := errors.New("stop")
	calls := 0
	err := Train(net, x, y, TrainConfig{
		Epochs:    100,
		BatchSize: 4,
		OnEpoch: func(epoch int, _ float64) error {
			calls++
			if epoch == 2 {
				return stop
			}
			return nil
		},
	})
	if !errors.Is(err, stop) {
		t.Fatalf("err = %v, want wrapped stop", err)
	}
	if calls != 3 {
		t.Fatalf("OnEpoch called %d times, want 3", calls)
	}
}

func TestTrainLogWrites(t *testing.T) {
	net, _ := NewMLP(MLPConfig{Dims: []int{2, 4, 2}, Seed: 1})
	x := tensor.New(8, 2)
	y := OneHot([]int{0, 1, 0, 1, 0, 1, 0, 1}, 2)
	var buf bytes.Buffer
	if err := Train(net, x, y, TrainConfig{Epochs: 2, BatchSize: 4, Log: &buf, LogEvery: 1}); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("no training log written")
	}
}

func TestSpecRoundTrip(t *testing.T) {
	net, err := NewMLP(MLPConfig{Dims: []int{5, 9, 3}, Activation: "tanh", DropoutRate: 0.2, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(22)
	x := tensor.New(4, 5)
	for i := range x.Data {
		x.Data[i] = r.Float64()
	}
	want := net.Forward(x, false).Clone()

	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := loaded.Forward(x, false)
	for i := range want.Data {
		if want.Data[i] != got.Data[i] {
			t.Fatal("round-tripped network computes different logits")
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	net, _ := NewMLP(MLPConfig{Dims: []int{3, 4, 2}, Seed: 23})
	path := t.TempDir() + "/model.gob"
	if err := net.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.InDim() != 3 || loaded.OutDim() != 2 {
		t.Fatalf("loaded dims %d->%d", loaded.InDim(), loaded.OutDim())
	}
}

func TestLoadRejectsBadFormat(t *testing.T) {
	if _, err := FromSpec(&Spec{Format: "bogus"}); err == nil {
		t.Fatal("expected format error")
	}
}

func TestFromSpecRejectsCorruptDense(t *testing.T) {
	s := &Spec{
		Format: SpecFormat,
		InDim:  3,
		Layers: []LayerSpec{{Type: "dense", In: 3, Out: 2, W: []float64{1}, B: []float64{0, 0}}},
	}
	if _, err := FromSpec(s); err == nil {
		t.Fatal("expected corrupt-weights error")
	}
}

func TestAdamReducesLossFasterThanItStarts(t *testing.T) {
	net, _ := NewMLP(MLPConfig{Dims: []int{4, 12, 2}, Seed: 25})
	r := rng.New(26)
	x := tensor.New(64, 4)
	labels := make([]int, 64)
	for i := 0; i < 64; i++ {
		c := i % 2
		labels[i] = c
		for j := 0; j < 4; j++ {
			x.Set(i, j, r.Normal(float64(2*c-1), 0.5))
		}
	}
	y := OneHot(labels, 2)
	loss := NewSoftmaxCrossEntropy(1)
	before := loss.Forward(net.Forward(x, false), y)
	var last float64
	err := Train(net, x, y, TrainConfig{
		Epochs: 20, BatchSize: 16, Seed: 27,
		OnEpoch: func(_ int, l float64) error { last = l; return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if last >= before/2 {
		t.Fatalf("loss only moved %v -> %v", before, last)
	}
}

func TestSGDMomentumTrains(t *testing.T) {
	net, _ := NewMLP(MLPConfig{Dims: []int{2, 8, 2}, Seed: 28})
	x := tensor.FromRows([][]float64{{0, 0}, {1, 1}, {0.1, 0}, {0.9, 1}})
	labels := []int{0, 1, 0, 1}
	err := Train(net, x, OneHot(labels, 2), TrainConfig{
		Epochs: 200, BatchSize: 4,
		Optimizer: NewSGD(0.1, 0.9, 1e-4),
	})
	if err != nil {
		t.Fatal(err)
	}
	if acc := Accuracy(net, x, labels); acc != 1 {
		t.Fatalf("SGD accuracy %.2f", acc)
	}
}

func TestPredictClassMatchesProbs(t *testing.T) {
	net, _ := NewMLP(MLPConfig{Dims: []int{3, 6, 4}, Seed: 29})
	r := rng.New(30)
	x := tensor.New(20, 3)
	for i := range x.Data {
		x.Data[i] = r.NormFloat64()
	}
	pred := net.PredictClass(x)
	probs := net.Probs(x, 1)
	for i, p := range pred {
		if p != probs.RowArgmax(i) {
			t.Fatalf("sample %d: class %d vs probs argmax %d", i, p, probs.RowArgmax(i))
		}
	}
}

func TestAccuracyEmptyAndMismatch(t *testing.T) {
	net, _ := NewMLP(MLPConfig{Dims: []int{2, 2}, Seed: 1})
	if got := Accuracy(net, tensor.New(0, 2), nil); got != 0 {
		t.Fatalf("empty accuracy = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on label mismatch")
		}
	}()
	Accuracy(net, tensor.New(2, 2), []int{0})
}
