package attack

import (
	"fmt"

	"malevade/internal/nn"
	"malevade/internal/tensor"
)

// JSMA is the Jacobian-based Saliency Map Approach of Papernot et al.,
// restricted per the paper to additive perturbations: the attack computes
// the forward derivative ∂F₀/∂x (Eq. 1; class 0 = clean), selects the
// admissible feature with the maximal positive gradient — the API whose
// addition most increases the clean probability — and raises it by θ. It
// stops when the sample is classified clean or the iteration budget γ·M is
// exhausted. Every iteration is one forward and one backward pass over the
// batch: the gradient pass's logits decide which samples already evade.
//
// Iteration semantics follow the CleverHans implementation the paper used:
// the budget γ·M caps *iterations*, and an iteration may revisit a feature
// that is not yet saturated. The number of distinct perturbed features is
// therefore at most γ·M (the paper's "γ=0.005 … adding 2 features"), while
// a single highly salient feature can absorb several θ steps — exactly the
// behaviour in the paper's live test, where one API call added eight times
// drives detection from 98.43% to 0%.
type JSMA struct {
	// Model is the crafting model (the target itself in the white-box
	// setting, the substitute in grey/black-box settings).
	Model *nn.Network
	// Theta is the per-iteration perturbation magnitude (paper sweeps
	// 0–0.15; operating point 0.1).
	Theta float64
	// Gamma bounds iterations (and hence modified features) at γ·M
	// (paper sweeps 0–0.030; operating points 0.005, 0.02, 0.025).
	Gamma float64
	// ClampHi bounds feature values from above; the paper's features are
	// normalized to [0,1], so the default (0 → 1.0) is correct for them
	// and binary features alike.
	ClampHi float64
	// NoRevisit restricts each feature to a single θ step (the ablation
	// variant; see BenchmarkAblationSaliencyRule).
	NoRevisit bool
	// AllowRemoval lifts the paper's functionality-preservation
	// constraint and lets the attack also *decrease* features (remove
	// API calls). Only the ablation benches use it: removing calls from
	// a real binary would break it, which is exactly why the paper
	// forbids it.
	AllowRemoval bool
	// Scorer, when non-nil, judges the final verdict (Result.Evaded)
	// through a shared scoring engine (serve.Scorer) instead of the
	// crafting model's own inference path, as PGD and FGSM do. Gradients
	// and the per-iteration evasion checks stay on Model: each iteration
	// judges the batch from the logits of its own gradient pass.
	Scorer BatchScorer
}

var _ Attack = (*JSMA)(nil)

// Name implements Attack.
func (j *JSMA) Name() string {
	suffix := ""
	if j.NoRevisit {
		suffix = ",no-revisit"
	}
	return fmt.Sprintf("jsma(theta=%.4g,gamma=%.4g%s)", j.Theta, j.Gamma, suffix)
}

func (j *JSMA) clampHi() float64 {
	if j.ClampHi <= 0 {
		return 1
	}
	return j.ClampHi
}

// Run crafts adversarial examples for every row of x with batched gradient
// computations: each iteration computes the clean-class gradient and the
// logits for the whole batch in one pass, retires samples those logits
// already classify clean, and applies one θ step per remaining sample. A
// sample also retires when no admissible feature is left, and every sample
// stops when the budget runs out.
func (j *JSMA) Run(x *tensor.Matrix) []Result {
	if x.Cols != j.Model.InDim() {
		panic(fmt.Sprintf("attack: JSMA input width %d, want %d", x.Cols, j.Model.InDim()))
	}
	n := x.Rows
	results := make([]Result, n)
	adv := x.Clone()
	for i := 0; i < n; i++ {
		results[i] = Result{
			Original:    x.Row(i),
			Adversarial: adv.Row(i),
		}
	}
	sc := scorerOr(j.Scorer, j.Model)
	budget := FeatureBudget(j.Gamma, x.Cols)
	if budget == 0 || j.Theta <= 0 {
		evaluateEvasion(sc, results)
		return results
	}

	hi := j.clampHi()
	active := make([]bool, n)
	modified := make([][]bool, n)
	for i := range active {
		active[i] = true
		modified[i] = make([]bool, x.Cols)
	}
	numActive := n
	for step := 0; step < budget && numActive > 0; step++ {
		grad, logits := j.Model.ClassGradient(adv, 0 /* clean */, 1)
		for i := 0; i < n; i++ {
			if !active[i] {
				continue
			}
			if predictsClean(logits, i) {
				// Evades already: retire the sample unstepped.
				active[i] = false
				numActive--
				continue
			}
			row := adv.Row(i)
			gRow := grad.Row(i)
			best := -1
			bestG := 0.0
			for f, g := range gRow {
				// Add-only by default: only positive gradients
				// (raising the feature raises the clean
				// probability). Saturated features are inadmissible;
				// under NoRevisit so are previously modified ones.
				// With AllowRemoval, a negative gradient on a
				// non-zero feature is admissible too (ablation only).
				admissible := g > 0 && row[f] < hi
				if j.AllowRemoval && g < 0 && row[f] > 0 {
					admissible = true
				}
				if !admissible {
					continue
				}
				if j.NoRevisit && modified[i][f] {
					continue
				}
				mag := g
				if mag < 0 {
					mag = -mag
				}
				if best == -1 || mag > bestG {
					best, bestG = f, mag
				}
			}
			if best == -1 {
				// No admissible feature left: retire the sample.
				active[i] = false
				numActive--
				continue
			}
			if gRow[best] > 0 {
				row[best] += j.Theta
				if row[best] > hi {
					row[best] = hi
				}
			} else {
				row[best] -= j.Theta
				if row[best] < 0 {
					row[best] = 0
				}
			}
			if !modified[i][best] {
				modified[i][best] = true
				results[i].ModifiedFeatures = append(results[i].ModifiedFeatures, best)
			}
		}
	}
	evaluateEvasion(sc, results)
	return results
}

// PerturbOne attacks a single feature vector; a convenience wrapper over Run
// for the Figure 1 and live grey-box single-sample paths.
func (j *JSMA) PerturbOne(x []float64) Result {
	m := tensor.FromSlice(1, len(x), append([]float64(nil), x...))
	return j.Run(m)[0]
}
