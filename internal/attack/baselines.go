package attack

import (
	"fmt"

	"malevade/internal/nn"
	"malevade/internal/rng"
	"malevade/internal/tensor"
)

// RandomAdd is the control attack from Figure 3: it adds θ to γ·M features
// chosen uniformly at random instead of by saliency. The paper's finding —
// "randomly adding features does not decrease the detection rates" — is what
// distinguishes the JSMA's gradient guidance from noise.
type RandomAdd struct {
	// Model is used only to evaluate evasion, never to guide selection.
	Model *nn.Network
	// Theta and Gamma have JSMA semantics.
	Theta float64
	Gamma float64
	// Seed drives feature selection.
	Seed uint64
	// Scorer optionally routes evasion evaluation through a shared
	// scoring engine.
	Scorer BatchScorer
}

var _ Attack = (*RandomAdd)(nil)

// Name implements Attack.
func (a *RandomAdd) Name() string {
	return fmt.Sprintf("random-add(theta=%.4g,gamma=%.4g)", a.Theta, a.Gamma)
}

// Run perturbs every row with randomly selected feature additions.
func (a *RandomAdd) Run(x *tensor.Matrix) []Result {
	n := x.Rows
	results := make([]Result, n)
	adv := x.Clone()
	budget := FeatureBudget(a.Gamma, x.Cols)
	r := rng.New(a.Seed)
	for i := 0; i < n; i++ {
		results[i] = Result{Original: x.Row(i), Adversarial: adv.Row(i)}
		if budget == 0 || a.Theta <= 0 {
			continue
		}
		row := adv.Row(i)
		for _, f := range r.SampleWithoutReplacement(x.Cols, budget) {
			row[f] += a.Theta
			if row[f] > 1 {
				row[f] = 1
			}
			results[i].ModifiedFeatures = append(results[i].ModifiedFeatures, f)
		}
	}
	evaluateEvasion(scorerOr(a.Scorer, a.Model), results)
	return results
}

// FGSM is the add-only variant of the Fast Gradient Sign Method: one step of
// magnitude θ in the positive part of sign(∂F₀/∂x). It modifies every
// feature whose gradient points toward the clean class, so it trades the
// JSMA's minimal-feature property for a single gradient evaluation. Included
// as the comparison attack (Goodfellow et al., ref [9] of the paper).
type FGSM struct {
	Model *nn.Network
	// Theta is the step magnitude.
	Theta float64
	// Scorer optionally routes evasion evaluation through a shared
	// scoring engine.
	Scorer BatchScorer
}

var _ Attack = (*FGSM)(nil)

// Name implements Attack.
func (a *FGSM) Name() string { return fmt.Sprintf("fgsm(theta=%.4g)", a.Theta) }

// Run applies one add-only signed-gradient step per row.
func (a *FGSM) Run(x *tensor.Matrix) []Result {
	n := x.Rows
	results := make([]Result, n)
	adv := x.Clone()
	grad, _ := a.Model.ClassGradient(x, 0 /* clean */, 1)
	for i := 0; i < n; i++ {
		results[i] = Result{Original: x.Row(i), Adversarial: adv.Row(i)}
		if a.Theta <= 0 {
			continue
		}
		row := adv.Row(i)
		gRow := grad.Row(i)
		for f, g := range gRow {
			if g <= 0 {
				continue // add-only: never decrease a feature
			}
			row[f] += a.Theta
			if row[f] > 1 {
				row[f] = 1
			}
			results[i].ModifiedFeatures = append(results[i].ModifiedFeatures, f)
		}
	}
	evaluateEvasion(scorerOr(a.Scorer, a.Model), results)
	return results
}
