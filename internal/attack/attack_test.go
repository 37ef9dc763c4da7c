package attack

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"malevade/internal/dataset"
	"malevade/internal/detector"
	"malevade/internal/tensor"
)

// Shared fixtures: a small corpus and a trained target model, built once.
var (
	testCorpus = func() *dataset.Corpus {
		c, err := dataset.Generate(dataset.TableIConfig(3).Scaled(150))
		if err != nil {
			panic(err)
		}
		return c
	}()
	testModel = func() *detector.DNN {
		d, err := detector.Train(testCorpus.Train, detector.TrainConfig{
			Arch:       detector.ArchTarget,
			WidthScale: 0.1,
			Epochs:     15,
			BatchSize:  64,
			Seed:       5,
		})
		if err != nil {
			panic(err)
		}
		return d
	}()
	// testMalware holds detected malware samples — the attack's raw
	// material, mirroring the paper's use of the 28,874 test malware.
	testMalware = func() *tensor.Matrix {
		mal := testCorpus.Test.FilterLabel(dataset.LabelMalware)
		pred := testModel.Predict(mal.X)
		var rows []int
		for i, p := range pred {
			if p == dataset.LabelMalware {
				rows = append(rows, i)
			}
		}
		if len(rows) > 60 {
			rows = rows[:60]
		}
		return mal.Subset(rows).X
	}()
)

// firstRows copies the first k rows of m into a fresh matrix.
func firstRows(m *tensor.Matrix, k int) *tensor.Matrix {
	if k > m.Rows {
		k = m.Rows
	}
	out := tensor.New(k, m.Cols)
	copy(out.Data, m.Data[:k*m.Cols])
	return out
}

func TestFeatureBudget(t *testing.T) {
	tests := []struct {
		name  string
		gamma float64
		width int
		want  int
	}{
		{name: "paper 0.005 is 2 APIs", gamma: 0.005, width: 491, want: 2},
		{name: "paper 0.025 is 12 APIs", gamma: 0.025, width: 491, want: 12},
		{name: "paper 0.030 is 14 APIs", gamma: 0.030, width: 491, want: 14},
		{name: "zero", gamma: 0, width: 491, want: 0},
		{name: "negative", gamma: -1, width: 491, want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := FeatureBudget(tt.gamma, tt.width); got != tt.want {
				t.Errorf("FeatureBudget(%v, %d) = %d, want %d", tt.gamma, tt.width, got, tt.want)
			}
		})
	}
}

func TestJSMAEvadesTargetModel(t *testing.T) {
	j := &JSMA{Model: testModel.Net, Theta: 0.1, Gamma: 0.025}
	results := j.Run(testMalware)
	stats := Summarize(results)
	if stats.EvasionRate < 0.5 {
		t.Fatalf("white-box JSMA evasion rate %.3f — attack ineffective (stats %v)", stats.EvasionRate, stats)
	}
}

// TestJSMAAddOnly is the paper's functionality-preservation invariant: the
// adversarial vector never falls below the original in any coordinate.
func TestJSMAAddOnly(t *testing.T) {
	j := &JSMA{Model: testModel.Net, Theta: 0.1, Gamma: 0.03}
	for _, r := range j.Run(testMalware) {
		for f := range r.Adversarial {
			if r.Adversarial[f] < r.Original[f]-1e-12 {
				t.Fatalf("feature %d decreased: %v -> %v", f, r.Original[f], r.Adversarial[f])
			}
		}
	}
}

func TestJSMARespectsGammaBudget(t *testing.T) {
	for _, gamma := range []float64{0.005, 0.01, 0.025} {
		budget := FeatureBudget(gamma, testMalware.Cols)
		j := &JSMA{Model: testModel.Net, Theta: 0.1, Gamma: gamma}
		for _, r := range j.Run(testMalware) {
			if len(r.ModifiedFeatures) > budget {
				t.Fatalf("gamma=%v: modified %d features, budget %d", gamma, len(r.ModifiedFeatures), budget)
			}
			seen := make(map[int]bool)
			for _, f := range r.ModifiedFeatures {
				if seen[f] {
					t.Fatalf("feature %d modified twice", f)
				}
				seen[f] = true
			}
		}
	}
}

func TestJSMAClampsToUnitInterval(t *testing.T) {
	j := &JSMA{Model: testModel.Net, Theta: 0.15, Gamma: 0.03}
	for _, r := range j.Run(testMalware) {
		for _, v := range r.Adversarial {
			if v < 0 || v > 1 {
				t.Fatalf("adversarial feature %v out of [0,1]", v)
			}
		}
	}
}

func TestJSMAZeroBudgetIsIdentity(t *testing.T) {
	j := &JSMA{Model: testModel.Net, Theta: 0.1, Gamma: 0}
	for _, r := range j.Run(testMalware) {
		if len(r.ModifiedFeatures) != 0 || r.L2 != 0 {
			t.Fatal("gamma=0 should not perturb")
		}
	}
}

func TestJSMAZeroThetaIsIdentity(t *testing.T) {
	j := &JSMA{Model: testModel.Net, Theta: 0, Gamma: 0.025}
	for _, r := range j.Run(testMalware) {
		if r.L2 != 0 {
			t.Fatal("theta=0 should not perturb")
		}
	}
}

// TestJSMAStrengthMonotone: evasion should not decrease as γ grows — the
// security-curve shape of Figure 3(a).
func TestJSMAStrengthMonotone(t *testing.T) {
	prev := -1.0
	for _, gamma := range []float64{0.005, 0.015, 0.030} {
		j := &JSMA{Model: testModel.Net, Theta: 0.1, Gamma: gamma}
		rate := Summarize(j.Run(testMalware)).EvasionRate
		if rate < prev-0.08 { // small tolerance for retirement churn
			t.Fatalf("evasion rate dropped from %.3f to %.3f at gamma=%v", prev, rate, gamma)
		}
		if rate > prev {
			prev = rate
		}
	}
}

// TestJSMABeatsRandom reproduces Figure 3's control finding.
func TestJSMABeatsRandom(t *testing.T) {
	j := &JSMA{Model: testModel.Net, Theta: 0.1, Gamma: 0.025}
	r := &RandomAdd{Model: testModel.Net, Theta: 0.1, Gamma: 0.025, Seed: 9}
	jsmaRate := Summarize(j.Run(testMalware)).EvasionRate
	randRate := Summarize(r.Run(testMalware)).EvasionRate
	if jsmaRate < randRate+0.3 {
		t.Fatalf("JSMA evasion %.3f vs random %.3f — gradient guidance not demonstrated", jsmaRate, randRate)
	}
}

func TestRandomAddRespectsBudgetAndClamp(t *testing.T) {
	a := &RandomAdd{Model: testModel.Net, Theta: 0.2, Gamma: 0.01, Seed: 2}
	budget := FeatureBudget(0.01, testMalware.Cols)
	for _, r := range a.Run(testMalware) {
		if len(r.ModifiedFeatures) != budget {
			t.Fatalf("random-add modified %d, want %d", len(r.ModifiedFeatures), budget)
		}
		for _, v := range r.Adversarial {
			if v < 0 || v > 1 {
				t.Fatalf("random-add out of range: %v", v)
			}
		}
	}
}

func TestRandomAddDeterministicPerSeed(t *testing.T) {
	a1 := &RandomAdd{Model: testModel.Net, Theta: 0.1, Gamma: 0.01, Seed: 4}
	a2 := &RandomAdd{Model: testModel.Net, Theta: 0.1, Gamma: 0.01, Seed: 4}
	r1 := a1.Run(testMalware)
	r2 := a2.Run(testMalware)
	for i := range r1 {
		for k := range r1[i].ModifiedFeatures {
			if r1[i].ModifiedFeatures[k] != r2[i].ModifiedFeatures[k] {
				t.Fatal("same seed, different random attack")
			}
		}
	}
}

func TestFGSMAddOnly(t *testing.T) {
	a := &FGSM{Model: testModel.Net, Theta: 0.05}
	for _, r := range a.Run(testMalware) {
		for f := range r.Adversarial {
			if r.Adversarial[f] < r.Original[f]-1e-12 {
				t.Fatal("FGSM decreased a feature")
			}
			if r.Adversarial[f] > 1 {
				t.Fatal("FGSM exceeded clamp")
			}
		}
	}
}

func TestFGSMEvades(t *testing.T) {
	a := &FGSM{Model: testModel.Net, Theta: 0.1}
	rate := Summarize(a.Run(testMalware)).EvasionRate
	if rate < 0.5 {
		t.Fatalf("FGSM evasion rate %.3f", rate)
	}
}

func TestPerturbOneMatchesBatch(t *testing.T) {
	j := &JSMA{Model: testModel.Net, Theta: 0.1, Gamma: 0.01}
	single := j.PerturbOne(testMalware.Row(0))
	batch := j.Run(testMalware.Clone())[0]
	if len(single.ModifiedFeatures) != len(batch.ModifiedFeatures) {
		t.Fatalf("single vs batch modified %d vs %d", len(single.ModifiedFeatures), len(batch.ModifiedFeatures))
	}
	if math.Abs(single.L2-batch.L2) > 1e-12 {
		t.Fatalf("single L2 %v vs batch %v", single.L2, batch.L2)
	}
}

func TestPerturbOneDoesNotMutateInput(t *testing.T) {
	x := append([]float64(nil), testMalware.Row(0)...)
	orig := append([]float64(nil), x...)
	j := &JSMA{Model: testModel.Net, Theta: 0.1, Gamma: 0.02}
	j.PerturbOne(x)
	for i := range x {
		if x[i] != orig[i] {
			t.Fatal("PerturbOne mutated its input")
		}
	}
}

func TestRunDoesNotMutateInputMatrix(t *testing.T) {
	x := testMalware.Clone()
	before := append([]float64(nil), x.Data...)
	j := &JSMA{Model: testModel.Net, Theta: 0.1, Gamma: 0.02}
	j.Run(x)
	for i := range before {
		if x.Data[i] != before[i] {
			t.Fatal("Run mutated the input matrix")
		}
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.EvasionRate != 0 {
		t.Fatalf("empty stats = %+v", s)
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{N: 3, EvasionRate: 0.5, MeanL2: 0.1, MeanModified: 2}
	if !strings.Contains(s.String(), "n=3") {
		t.Fatalf("Stats.String = %q", s.String())
	}
}

func TestAttackNames(t *testing.T) {
	j := &JSMA{Theta: 0.1, Gamma: 0.025}
	if !strings.Contains(j.Name(), "jsma") {
		t.Error(j.Name())
	}
	r := &RandomAdd{Theta: 0.1, Gamma: 0.025}
	if !strings.Contains(r.Name(), "random") {
		t.Error(r.Name())
	}
	f := &FGSM{Theta: 0.1}
	if !strings.Contains(f.Name(), "fgsm") {
		t.Error(f.Name())
	}
}

func TestAdvMatrixAlignment(t *testing.T) {
	j := &JSMA{Model: testModel.Net, Theta: 0.1, Gamma: 0.01}
	results := j.Run(testMalware)
	adv := AdvMatrix(results)
	if adv.Rows != testMalware.Rows || adv.Cols != testMalware.Cols {
		t.Fatalf("AdvMatrix %dx%d", adv.Rows, adv.Cols)
	}
	for i := range results {
		for f, v := range results[i].Adversarial {
			if adv.At(i, f) != v {
				t.Fatal("AdvMatrix row misaligned")
			}
		}
	}
}

func TestAdvMatrixEmpty(t *testing.T) {
	m := AdvMatrix(nil)
	if m.Rows != 0 {
		t.Fatal("empty AdvMatrix should have 0 rows")
	}
}

// Property: for any theta/gamma in the paper's sweep ranges, JSMA results
// respect add-only, clamping, and budget simultaneously.
func TestJSMAInvariantsProperty(t *testing.T) {
	sub := firstRows(testMalware, 10)
	f := func(thetaRaw, gammaRaw uint8) bool {
		theta := 0.15 * float64(thetaRaw) / 255
		gamma := 0.03 * float64(gammaRaw) / 255
		j := &JSMA{Model: testModel.Net, Theta: theta, Gamma: gamma}
		budget := FeatureBudget(gamma, sub.Cols)
		for _, r := range j.Run(sub) {
			if len(r.ModifiedFeatures) > budget {
				return false
			}
			for k := range r.Adversarial {
				if r.Adversarial[k] < r.Original[k]-1e-12 || r.Adversarial[k] > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// BenchmarkJSMABatch times one campaign batch of white-box crafting: JSMA
// at θ=0.1, γ=0.02 over 4 generated-corpus malware rows on the full-width
// 491-512-256-2 target. One row resists the attack, so every iteration
// runs the whole feature budget, as campaign batches do. Corpus rows are
// mostly zeros, which MatMul skips; Gaussian inputs would overstate the
// forward pass.
func BenchmarkJSMABatch(b *testing.B) {
	target, err := detector.Train(testCorpus.Train, detector.TrainConfig{
		Arch: detector.ArchTarget, Epochs: 2, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	mal := testCorpus.Test.FilterLabel(dataset.LabelMalware)
	var detected []int
	for i, p := range target.Predict(mal.X) {
		if p == dataset.LabelMalware {
			detected = append(detected, i)
		}
	}
	if len(detected) < 4 {
		b.Fatalf("the target detects %d test malware rows, want at least 4", len(detected))
	}
	j := &JSMA{Model: target.Net, Theta: 0.1, Gamma: 0.02}
	cands := mal.Subset(detected).X
	resist := -1
	for i, r := range j.Run(cands) {
		if !r.Evaded {
			resist = i
			break
		}
	}
	if resist < 0 {
		b.Fatal("every detected row evades; no batch would run the full budget")
	}
	x := tensor.New(4, cands.Cols)
	for i := range 4 {
		copy(x.Row(i), cands.Row((resist+i)%cands.Rows))
	}
	b.ReportAllocs()
	for b.Loop() {
		j.Run(x)
	}
}
