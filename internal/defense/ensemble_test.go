package defense

import (
	"sync"
	"testing"

	"malevade/internal/attack"
	"malevade/internal/dataset"
	"malevade/internal/detector"
	"malevade/internal/evaluation"
)

// ensembleMembers returns the adversarially trained and the
// dimensionality-reduced member the ensemble tests combine. Both fits are
// deterministic and the tests only read them, so they are built once per
// test binary, like defBase.
var ensembleMembers = sync.OnceValues(func() (*detector.DNN, *DimReduction) {
	trainMal := defCorpus.Train.FilterLabel(dataset.LabelMalware)
	j := &attack.JSMA{Model: defBase.Net, Theta: 0.1, Gamma: 0.02}
	advX := attack.AdvMatrix(j.Run(trainMal.X))
	sets, err := BuildAdvTrainingSet(defCorpus.Train, advX)
	if err != nil {
		panic(err)
	}
	advTrained, err := AdversarialTraining(sets, detector.TrainConfig{
		Arch:       detector.ArchTarget,
		WidthScale: 0.1,
		Epochs:     15,
		BatchSize:  64,
		Seed:       43,
	})
	if err != nil {
		panic(err)
	}
	dimRed, err := NewDimReduction(defCorpus.Train, DimReductionConfig{
		K: 19,
		Train: detector.TrainConfig{
			Arch:       detector.ArchTarget,
			WidthScale: 0.1,
			Epochs:     15,
			BatchSize:  64,
			Seed:       47,
		},
	})
	if err != nil {
		panic(err)
	}
	return advTrained, dimRed
})

func TestNewEnsembleValidation(t *testing.T) {
	if _, err := NewEnsemble(EnsembleMean); err == nil {
		t.Fatal("expected empty-members error")
	}
}

func TestEnsembleModeString(t *testing.T) {
	tests := []struct {
		give EnsembleMode
		want string
	}{
		{give: EnsembleMean, want: "mean"},
		{give: EnsembleMaxProb, want: "max-prob"},
		{give: EnsembleMajority, want: "majority"},
		{give: EnsembleMode(9), want: "EnsembleMode(9)"},
	}
	for _, tt := range tests {
		if got := tt.give.String(); got != tt.want {
			t.Errorf("String = %q, want %q", got, tt.want)
		}
	}
}

// TestEnsembleAdvTrainingPlusDimReduction is the paper's closing suggestion
// made concrete: the ensemble's advEx detection should match or beat the
// weaker member while keeping TNR above the worst member's.
func TestEnsembleAdvTrainingPlusDimReduction(t *testing.T) {
	advTrained, dimRed := ensembleMembers()
	ens, err := NewEnsemble(EnsembleMaxProb, advTrained, dimRed)
	if err != nil {
		t.Fatal(err)
	}
	advA := detector.DetectionRate(advTrained, defAdvX)
	advD := detector.DetectionRate(dimRed, defAdvX)
	advE := detector.DetectionRate(ens, defAdvX)
	worse := advA
	if advD < worse {
		worse = advD
	}
	if advE < worse {
		t.Fatalf("ensemble advEx %.3f below both members (%.3f, %.3f)", advE, advA, advD)
	}
	cm := evaluation.Evaluate(ens, defCorpus.Test)
	if cm.TPR() < 0.7 {
		t.Fatalf("ensemble TPR %.3f", cm.TPR())
	}
}

func TestEnsembleModesAgreeOnShape(t *testing.T) {
	advTrained, dimRed := ensembleMembers()
	for _, mode := range []EnsembleMode{EnsembleMean, EnsembleMaxProb, EnsembleMajority} {
		ens, err := NewEnsemble(mode, advTrained, dimRed)
		if err != nil {
			t.Fatal(err)
		}
		probs := ens.MalwareProb(defTestMal.X)
		pred := ens.Predict(defTestMal.X)
		if len(probs) != defTestMal.Len() || len(pred) != defTestMal.Len() {
			t.Fatalf("mode %s output sizes wrong", mode)
		}
		for i := range probs {
			if probs[i] < 0 || probs[i] > 1 {
				t.Fatalf("mode %s prob %v", mode, probs[i])
			}
			if (probs[i] >= 0.5) != (pred[i] == 1) {
				t.Fatalf("mode %s prob/pred inconsistent at %d", mode, i)
			}
		}
	}
	if ens, _ := NewEnsemble(EnsembleMean, advTrained); ens.InDim() != 491 {
		t.Fatal("InDim")
	}
}

func TestEnsembleMajorityTieIsMalware(t *testing.T) {
	advTrained, dimRed := ensembleMembers()
	ens, err := NewEnsemble(EnsembleMajority, advTrained, dimRed)
	if err != nil {
		t.Fatal(err)
	}
	// Find a sample where the two members disagree; majority-of-two tie
	// must resolve to malware (vote fraction 0.5 → predict 1).
	pa := advTrained.Predict(defTestMal.X)
	pd := dimRed.Predict(defTestMal.X)
	pe := ens.Predict(defTestMal.X)
	for i := range pa {
		if pa[i] != pd[i] {
			if pe[i] != 1 {
				t.Fatalf("tie at %d resolved to clean", i)
			}
			return
		}
	}
	t.Skip("members never disagreed on this corpus")
}
