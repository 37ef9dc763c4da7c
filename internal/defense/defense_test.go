package defense

import (
	"math"
	"testing"

	"malevade/internal/attack"
	"malevade/internal/dataset"
	"malevade/internal/detector"
	"malevade/internal/evaluation"
	"malevade/internal/tensor"
)

// Shared fixtures, built once per test binary: a small corpus, an undefended
// model, and a fixed adversarial-example set (the paper evaluates all
// defenses against grey-box advEx at θ=0.1, γ=0.02; the white-box set here
// plays the same role for unit tests — the grey-box pipeline is exercised in
// the experiments package).
var (
	defCorpus = func() *dataset.Corpus {
		c, err := dataset.Generate(dataset.TableIConfig(13).Scaled(120))
		if err != nil {
			panic(err)
		}
		return c
	}()
	defBase = func() *detector.DNN {
		d, err := detector.Train(defCorpus.Train, detector.TrainConfig{
			Arch:       detector.ArchTarget,
			WidthScale: 0.1,
			Epochs:     15,
			BatchSize:  64,
			Seed:       11,
		})
		if err != nil {
			panic(err)
		}
		return d
	}()
	defTestMal   = defCorpus.Test.FilterLabel(dataset.LabelMalware)
	defTestClean = defCorpus.Test.FilterLabel(dataset.LabelClean)
	defAdvX      = func() *tensor.Matrix {
		j := &attack.JSMA{Model: defBase.Net, Theta: 0.1, Gamma: 0.02}
		return attack.AdvMatrix(j.Run(defTestMal.X))
	}()
)

func advDataset(x *tensor.Matrix) *dataset.Dataset {
	d := &dataset.Dataset{
		X:      x,
		Counts: tensor.New(x.Rows, x.Cols),
		Y:      make([]int, x.Rows),
		Fams:   make([]string, x.Rows),
	}
	for i := range d.Y {
		d.Y[i] = dataset.LabelMalware
		d.Fams[i] = "adv"
	}
	return d
}

func TestBuildAdvTrainingSet(t *testing.T) {
	trainMal := defCorpus.Train.FilterLabel(dataset.LabelMalware)
	j := &attack.JSMA{Model: defBase.Net, Theta: 0.1, Gamma: 0.02}
	advX := attack.AdvMatrix(j.Run(trainMal.X))
	sets, err := BuildAdvTrainingSet(defCorpus.Train, advX)
	if err != nil {
		t.Fatal(err)
	}
	wantMax := defCorpus.Train.Len() + advX.Rows
	if sets.Train.Len()+sets.Duplicates != wantMax {
		t.Fatalf("size %d + dups %d != %d", sets.Train.Len(), sets.Duplicates, wantMax)
	}
	// Every adversarial row must carry the malware label.
	advLabelled := 0
	for i, f := range sets.Train.Fams {
		if f == "adversarial" {
			advLabelled++
			if sets.Train.Y[i] != dataset.LabelMalware {
				t.Fatal("adversarial row not labelled malware")
			}
		}
	}
	if advLabelled == 0 {
		t.Fatal("no adversarial rows present")
	}
}

func TestBuildAdvTrainingSetWidthMismatch(t *testing.T) {
	if _, err := BuildAdvTrainingSet(defCorpus.Train, tensor.New(3, 7)); err == nil {
		t.Fatal("expected width error")
	}
}

// TestAdversarialTrainingRestoresDetection is the paper's Table VI headline:
// adversarial training lifts advEx detection dramatically (0.304 → 0.931)
// without sacrificing clean accuracy.
func TestAdversarialTrainingRestoresDetection(t *testing.T) {
	before := detector.DetectionRate(defBase, defAdvX)

	trainMal := defCorpus.Train.FilterLabel(dataset.LabelMalware)
	j := &attack.JSMA{Model: defBase.Net, Theta: 0.1, Gamma: 0.02}
	advTrain := attack.AdvMatrix(j.Run(trainMal.X))
	sets, err := BuildAdvTrainingSet(defCorpus.Train, advTrain)
	if err != nil {
		t.Fatal(err)
	}
	defended, err := AdversarialTraining(sets, detector.TrainConfig{
		Arch:       detector.ArchTarget,
		WidthScale: 0.1,
		Epochs:     15,
		BatchSize:  64,
		Seed:       13,
	})
	if err != nil {
		t.Fatal(err)
	}
	after := detector.DetectionRate(defended, defAdvX)
	if after <= before || after < 0.85 {
		t.Fatalf("adversarial training detection %v -> %v, want recovery above 0.85", before, after)
	}
	cm := evaluation.Evaluate(defended, defCorpus.Test)
	if cm.TNR() < 0.75 {
		t.Fatalf("adversarial training destroyed TNR: %v", cm)
	}
}

func TestDistillValidation(t *testing.T) {
	if _, err := Distill(defCorpus.Train, DistillConfig{}); err == nil {
		t.Fatal("expected epochs error")
	}
	empty := defCorpus.Train.Subset(nil)
	if _, err := Distill(empty, DistillConfig{Epochs: 1}); err == nil {
		t.Fatal("expected empty error")
	}
}

func TestDistillKeepsReasonableAccuracyAndMasksGradients(t *testing.T) {
	// Distillation needs more epochs than plain training: gradient
	// masking only sets in once the student's logits grow ~T× larger
	// than an ordinary model's (see the probe numbers in EXPERIMENTS.md).
	student, err := Distill(defCorpus.Train, DistillConfig{
		Temperature: 50,
		WidthScale:  0.1,
		Epochs:      40,
		BatchSize:   64,
		Seed:        17,
	})
	if err != nil {
		t.Fatal(err)
	}
	acc := detector.Accuracy(student, defCorpus.Train)
	if acc < 0.7 {
		t.Fatalf("distilled train accuracy %.3f", acc)
	}
	// Gradient masking: the student's input gradients at T=1 should be
	// far smaller than the base model's.
	sub := tensor.New(10, defTestMal.X.Cols)
	copy(sub.Data, defTestMal.X.Data[:10*defTestMal.X.Cols])
	baseGrad, _ := defBase.Net.ClassGradient(sub, 0, 1)
	studGrad, _ := student.Net.ClassGradient(sub, 0, 1)
	gBase, gStud := baseGrad.MaxAbs(), studGrad.MaxAbs()
	if gStud > gBase*0.01 {
		t.Fatalf("distillation did not mask gradients: base %v student %v", gBase, gStud)
	}
}

func TestBitDepthSqueezer(t *testing.T) {
	sq := BitDepthSqueezer{Bits: 1}
	got := sq.Squeeze([]float64{0.2, 0.6, 0.9})
	want := []float64{0, 1, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("1-bit squeeze = %v, want %v", got, want)
		}
	}
	sq3 := BitDepthSqueezer{Bits: 3}
	v := sq3.Squeeze([]float64{0.5})[0]
	if math.Abs(v-0.5) > 1.0/7+1e-9 {
		t.Fatalf("3-bit squeeze drifted: %v", v)
	}
	if sq3.Name() != "bitdepth-3" {
		t.Fatal(sq3.Name())
	}
}

func TestBitDepthSqueezerDoesNotMutate(t *testing.T) {
	in := []float64{0.123, 0.456}
	orig := append([]float64(nil), in...)
	BitDepthSqueezer{Bits: 2}.Squeeze(in)
	for i := range in {
		if in[i] != orig[i] {
			t.Fatal("squeezer mutated input")
		}
	}
}

func TestFeatureSqueezingCalibration(t *testing.T) {
	fs, err := NewFeatureSqueezing(defBase, nil, defTestClean.X, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	flags := fs.IsAdversarial(defTestClean.X)
	flagged := 0
	for _, f := range flags {
		if f {
			flagged++
		}
	}
	fpr := float64(flagged) / float64(len(flags))
	if fpr > 0.12 {
		t.Fatalf("clean flag rate %.3f, calibrated for 0.05", fpr)
	}
}

func TestFeatureSqueezingValidation(t *testing.T) {
	if _, err := NewFeatureSqueezing(defBase, nil, defTestClean.X, 0); err == nil {
		t.Fatal("expected FPR error")
	}
	if _, err := NewFeatureSqueezing(defBase, nil, tensor.New(0, 491), 0.05); err == nil {
		t.Fatal("expected empty-calibration error")
	}
}

func TestFeatureSqueezingFlagsAdversarials(t *testing.T) {
	fs, err := NewFeatureSqueezing(defBase, nil, defTestClean.X, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	pred := fs.Predict(defAdvX)
	detected := 0
	for _, p := range pred {
		if p == dataset.LabelMalware {
			detected++
		}
	}
	rate := float64(detected) / float64(len(pred))
	base := detector.DetectionRate(defBase, defAdvX)
	if rate < base {
		t.Fatalf("squeezing detection %.3f below undefended %.3f", rate, base)
	}
}

func TestFeatureSqueezingDetectorInterface(t *testing.T) {
	fs, err := NewFeatureSqueezing(defBase, nil, defTestClean.X, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if fs.InDim() != 491 {
		t.Fatal("InDim")
	}
	probs := fs.MalwareProb(defAdvX)
	pred := fs.Predict(defAdvX)
	for i := range pred {
		if probs[i] < 0 || probs[i] > 1 {
			t.Fatalf("prob %v", probs[i])
		}
		if pred[i] == dataset.LabelMalware && probs[i] <= 0.5 && probs[i] != 1 {
			// flagged rows carry prob 1; model-decided rows must agree
			t.Fatalf("row %d: pred %d prob %v", i, pred[i], probs[i])
		}
	}
}

func TestFitPCAReconstructsStructure(t *testing.T) {
	// Synthetic data with one dominant direction.
	n, d := 200, 8
	x := tensor.New(n, d)
	for i := 0; i < n; i++ {
		t1 := float64(i%17) - 8
		for j := 0; j < d; j++ {
			x.Set(i, j, t1*float64(j+1)*0.1)
		}
	}
	pca, err := FitPCA(x, 2)
	if err != nil {
		t.Fatal(err)
	}
	if pca.Eigenvalues[0] < pca.Eigenvalues[1] {
		t.Fatal("eigenvalues not descending")
	}
	// The dominant component must explain nearly all variance.
	if pca.Eigenvalues[0] < 100*pca.Eigenvalues[1] {
		t.Fatalf("rank-1 structure not found: %v", pca.Eigenvalues)
	}
	// Component must be unit norm.
	norm := tensor.L2Norm(pca.Components.Row(0))
	if math.Abs(norm-1) > 1e-6 {
		t.Fatalf("component norm %v", norm)
	}
}

func TestFitPCAValidation(t *testing.T) {
	x := tensor.New(1, 4)
	if _, err := FitPCA(x, 2); err == nil {
		t.Fatal("expected sample-count error")
	}
	x2 := tensor.New(5, 4)
	if _, err := FitPCA(x2, 0); err == nil {
		t.Fatal("expected k error")
	}
	if _, err := FitPCA(x2, 5); err == nil {
		t.Fatal("expected k>d error")
	}
}

func TestPCAProjectionPreservesPairwiseStructure(t *testing.T) {
	// Projection onto all components is an isometry up to rotation:
	// distances are preserved when k = d.
	n, d := 50, 6
	x := tensor.New(n, d)
	seedFill(x)
	pca, err := FitPCA(x, d)
	if err != nil {
		t.Fatal(err)
	}
	proj := pca.Project(x)
	for trial := 0; trial < 20; trial++ {
		i, j := trial%n, (trial*7+1)%n
		orig := tensor.L2Distance(x.Row(i), x.Row(j))
		got := tensor.L2Distance(proj.Row(i), proj.Row(j))
		if math.Abs(orig-got) > 1e-6*(1+orig) {
			t.Fatalf("distance not preserved: %v vs %v", orig, got)
		}
	}
}

func seedFill(m *tensor.Matrix) {
	state := uint64(12345)
	for i := range m.Data {
		state = state*6364136223846793005 + 1442695040888963407
		m.Data[i] = float64(state>>40) / float64(1<<24)
	}
}

func TestDimReductionDefense(t *testing.T) {
	dr, err := NewDimReduction(defCorpus.Train, DimReductionConfig{
		K: 19,
		Train: detector.TrainConfig{
			Arch:       detector.ArchTarget,
			WidthScale: 0.1,
			Epochs:     15,
			BatchSize:  64,
			Seed:       19,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if dr.InDim() != 491 {
		t.Fatalf("InDim %d", dr.InDim())
	}
	cm := evaluation.Evaluate(dr, defCorpus.Test)
	if cm.TPR() < 0.6 {
		t.Fatalf("dim-reduction TPR %.3f too low", cm.TPR())
	}
	// The defense's premise: detection of the fixed advEx set improves
	// over the undefended model.
	base := detector.DetectionRate(defBase, defAdvX)
	defended := detector.DetectionRate(dr, defAdvX)
	if defended < base {
		t.Fatalf("dim reduction advEx detection %.3f below undefended %.3f", defended, base)
	}
}

func TestDimReductionDefaultK(t *testing.T) {
	dr, err := NewDimReduction(defCorpus.Train, DimReductionConfig{
		Train: detector.TrainConfig{
			Arch: detector.ArchTarget, WidthScale: 0.05, Epochs: 3, BatchSize: 64, Seed: 1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if dr.PCA.Components.Rows != 19 {
		t.Fatalf("default K = %d, want 19", dr.PCA.Components.Rows)
	}
}
