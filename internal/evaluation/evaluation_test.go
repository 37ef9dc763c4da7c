package evaluation

import (
	"math"
	"testing"

	"malevade/internal/attack"
	"malevade/internal/dataset"
	"malevade/internal/detector"
	"malevade/internal/tensor"
)

var (
	evalCorpus = func() *dataset.Corpus {
		c, err := dataset.Generate(dataset.TableIConfig(7).Scaled(150))
		if err != nil {
			panic(err)
		}
		return c
	}()
	evalModel = func() *detector.DNN {
		d, err := detector.Train(evalCorpus.Train, detector.TrainConfig{
			Arch:       detector.ArchTarget,
			WidthScale: 0.1,
			Epochs:     15,
			BatchSize:  64,
			Seed:       9,
		})
		if err != nil {
			panic(err)
		}
		return d
	}()
)

func TestConfusionMatrixRates(t *testing.T) {
	cm := ConfusionMatrix{TP: 80, FN: 20, TN: 90, FP: 10}
	tests := []struct {
		name string
		got  float64
		want float64
	}{
		{name: "TPR", got: cm.TPR(), want: 0.8},
		{name: "TNR", got: cm.TNR(), want: 0.9},
		{name: "FPR", got: cm.FPR(), want: 0.1},
		{name: "FNR", got: cm.FNR(), want: 0.2},
		{name: "Accuracy", got: cm.Accuracy(), want: 0.85},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if math.Abs(tt.got-tt.want) > 1e-12 {
				t.Errorf("= %v, want %v", tt.got, tt.want)
			}
		})
	}
}

func TestConfusionMatrixNaNWithoutClass(t *testing.T) {
	malOnly := ConfusionMatrix{TP: 5, FN: 5}
	if !math.IsNaN(malOnly.TNR()) || !math.IsNaN(malOnly.FPR()) {
		t.Error("TNR/FPR should be NaN without negatives (Table VI nan cells)")
	}
	cleanOnly := ConfusionMatrix{TN: 5, FP: 5}
	if !math.IsNaN(cleanOnly.TPR()) || !math.IsNaN(cleanOnly.FNR()) {
		t.Error("TPR/FNR should be NaN without positives")
	}
}

func TestEvaluateCountsTotal(t *testing.T) {
	cm := Evaluate(evalModel, evalCorpus.Test)
	if cm.TP+cm.TN+cm.FP+cm.FN != evalCorpus.Test.Len() {
		t.Fatalf("confusion total %d != %d", cm.TP+cm.TN+cm.FP+cm.FN, evalCorpus.Test.Len())
	}
	if cm.TPR() < 0.6 || cm.TNR() < 0.6 {
		t.Fatalf("baseline detector too weak: %v", cm)
	}
}

func TestEvaluateEmpty(t *testing.T) {
	empty := evalCorpus.Test.Subset(nil)
	cm := Evaluate(evalModel, empty)
	if cm.TP+cm.TN+cm.FP+cm.FN != 0 {
		t.Fatal("empty dataset should produce zero matrix")
	}
}

func TestSweepWhiteBoxCurveShape(t *testing.T) {
	mal := evalCorpus.Test.FilterLabel(dataset.LabelMalware)
	curve, err := Sweep(SweepSpec{
		Name:   "white-box gamma sweep",
		Param:  "gamma",
		Values: []float64{0, 0.01, 0.03},
		MakeAttack: func(g float64) attack.Attack {
			return &attack.JSMA{Model: evalModel.Net, Theta: 0.1, Gamma: g}
		},
		Target: evalModel,
	}, mal.X, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve.Pts) != 3 {
		t.Fatalf("%d points", len(curve.Pts))
	}
	// At gamma=0 the curve starts at the baseline detection rate.
	base := detector.DetectionRate(evalModel, mal.X)
	if math.Abs(curve.Pts[0].DetectionRate-base) > 1e-9 {
		t.Fatalf("gamma=0 detection %v != baseline %v", curve.Pts[0].DetectionRate, base)
	}
	// Detection must fall substantially by gamma=0.03 (Figure 3 shape).
	if curve.Pts[2].DetectionRate > base-0.3 {
		t.Fatalf("attack too weak: %v -> %v", base, curve.Pts[2].DetectionRate)
	}
	// White-box: target detection == crafting detection.
	for _, p := range curve.Pts {
		if math.Abs(p.DetectionRate-p.CraftDetectionRate) > 1e-9 {
			t.Fatal("white-box target and craft detection differ")
		}
	}
	// Perturbation size grows with strength.
	if curve.Pts[2].MeanL2 <= curve.Pts[0].MeanL2 {
		t.Fatal("L2 not growing with strength")
	}
}

func TestSweepValidation(t *testing.T) {
	mal := evalCorpus.Test.FilterLabel(dataset.LabelMalware)
	if _, err := Sweep(SweepSpec{Name: "x", Target: evalModel}, mal.X, false); err == nil {
		t.Fatal("expected MakeAttack error")
	}
	if _, err := Sweep(SweepSpec{
		Name:       "x",
		MakeAttack: func(float64) attack.Attack { return nil },
	}, mal.X, false); err == nil {
		t.Fatal("expected Target error")
	}
	if _, err := Sweep(SweepSpec{
		Name:       "x",
		MakeAttack: func(float64) attack.Attack { return nil },
		Target:     evalModel,
	}, mal.X, false); err == nil {
		t.Fatal("expected empty-values error")
	}
}

func TestSweepTransform(t *testing.T) {
	mal := evalCorpus.Test.FilterLabel(dataset.LabelMalware)
	sub := mal.Subset([]int{0, 1, 2, 3, 4})
	// A transform that restores the original must keep detection at the
	// unattacked baseline.
	curve, err := Sweep(SweepSpec{
		Name:   "identity-restoring transform",
		Param:  "gamma",
		Values: []float64{0.03},
		MakeAttack: func(g float64) attack.Attack {
			return &attack.JSMA{Model: evalModel.Net, Theta: 0.1, Gamma: g}
		},
		Target: evalModel,
		Transform: func(_, original []float64) []float64 {
			return original
		},
	}, sub.X, false)
	if err != nil {
		t.Fatal(err)
	}
	base := detector.DetectionRate(evalModel, sub.X)
	if math.Abs(curve.Pts[0].DetectionRate-base) > 1e-9 {
		t.Fatal("transform not applied to target evaluation")
	}
}

func TestTransferRate(t *testing.T) {
	mal := evalCorpus.Test.FilterLabel(dataset.LabelMalware)
	j := &attack.JSMA{Model: evalModel.Net, Theta: 0.1, Gamma: 0.03}
	adv := attack.AdvMatrix(j.Run(mal.X))
	tr := TransferRate(evalModel, adv)
	det := detector.DetectionRate(evalModel, adv)
	if math.Abs(tr+det-1) > 1e-9 {
		t.Fatalf("transfer %v + detection %v != 1", tr, det)
	}
	if TransferRate(evalModel, tensor.New(0, 491)) != 0 {
		t.Fatal("empty transfer rate should be 0")
	}
}

// TestAnalyzeL2Ordering checks Figure 5's headline ordering at a meaningful
// attack strength: d(mal,adv) < d(mal,clean) < d(clean,adv).
func TestAnalyzeL2Ordering(t *testing.T) {
	mal := evalCorpus.Test.FilterLabel(dataset.LabelMalware)
	clean := evalCorpus.Test.FilterLabel(dataset.LabelClean)
	j := &attack.JSMA{Model: evalModel.Net, Theta: 0.1, Gamma: 0.025}
	results := j.Run(mal.X)
	an := AnalyzeL2(0.025, results, clean.X)
	if !(an.MalwareToAdv < an.MalwareToClean) {
		t.Fatalf("d(mal,adv)=%v not < d(mal,clean)=%v", an.MalwareToAdv, an.MalwareToClean)
	}
	if !(an.MalwareToClean < an.CleanToAdv) {
		t.Fatalf("d(mal,clean)=%v not < d(clean,adv)=%v", an.MalwareToClean, an.CleanToAdv)
	}
}

func TestAnalyzeL2GrowsWithStrength(t *testing.T) {
	mal := evalCorpus.Test.FilterLabel(dataset.LabelMalware)
	clean := evalCorpus.Test.FilterLabel(dataset.LabelClean)
	weak := AnalyzeL2(0.005, (&attack.JSMA{Model: evalModel.Net, Theta: 0.1, Gamma: 0.005}).Run(mal.X), clean.X)
	strong := AnalyzeL2(0.03, (&attack.JSMA{Model: evalModel.Net, Theta: 0.1, Gamma: 0.03}).Run(mal.X), clean.X)
	if strong.MalwareToAdv <= weak.MalwareToAdv {
		t.Fatalf("d(mal,adv) did not grow: %v -> %v", weak.MalwareToAdv, strong.MalwareToAdv)
	}
}

func TestAnalyzeL2Empty(t *testing.T) {
	an := AnalyzeL2(0.1, nil, tensor.New(0, 3))
	if an.MalwareToAdv != 0 || an.CleanToAdv != 0 {
		t.Fatal("empty analysis should be zero")
	}
}
