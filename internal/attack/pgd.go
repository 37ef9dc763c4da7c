package attack

import (
	"fmt"

	"malevade/internal/nn"
	"malevade/internal/tensor"
)

// PGD is an add-only projected-gradient-descent attack: iterated FGSM steps
// of size Alpha projected back into the add-only L∞ ball of radius Epsilon
// around the original sample (Madry et al., ref [14] of the paper). It
// trades the JSMA's minimal-feature property for a stronger, denser
// perturbation under the same functionality-preservation constraint:
// features may only grow, and by at most Epsilon.
type PGD struct {
	// Model is the crafting model.
	Model *nn.Network
	// Epsilon bounds the per-feature perturbation (L∞ radius).
	Epsilon float64
	// Alpha is the step size (default Epsilon/4).
	Alpha float64
	// Steps is the iteration count (default 10).
	Steps int
	// Scorer optionally routes evasion evaluation through a shared
	// scoring engine.
	Scorer BatchScorer
}

var _ Attack = (*PGD)(nil)

// Name implements Attack.
func (a *PGD) Name() string {
	return fmt.Sprintf("pgd(eps=%.4g,steps=%d)", a.Epsilon, a.steps())
}

func (a *PGD) alpha() float64 {
	if a.Alpha > 0 {
		return a.Alpha
	}
	return a.Epsilon / 4
}

func (a *PGD) steps() int {
	if a.Steps > 0 {
		return a.Steps
	}
	return 10
}

// Run performs the projected ascent on the clean-class probability for
// every row of x.
func (a *PGD) Run(x *tensor.Matrix) []Result {
	if x.Cols != a.Model.InDim() {
		panic(fmt.Sprintf("attack: PGD input width %d, want %d", x.Cols, a.Model.InDim()))
	}
	n := x.Rows
	results := make([]Result, n)
	adv := x.Clone()
	for i := 0; i < n; i++ {
		results[i] = Result{Original: x.Row(i), Adversarial: adv.Row(i)}
	}
	if a.Epsilon <= 0 {
		evaluateEvasion(scorerOr(a.Scorer, a.Model), results)
		return results
	}
	alpha := a.alpha()
	for step := 0; step < a.steps(); step++ {
		grad, _ := a.Model.ClassGradient(adv, 0 /* clean */, 1)
		for i := 0; i < n; i++ {
			row := adv.Row(i)
			orig := x.Row(i)
			gRow := grad.Row(i)
			for f, g := range gRow {
				if g <= 0 {
					continue // add-only: never decrease
				}
				v := row[f] + alpha
				// Project into [orig, orig+eps] ∩ [0, 1].
				if hi := orig[f] + a.Epsilon; v > hi {
					v = hi
				}
				if v > 1 {
					v = 1
				}
				row[f] = v
			}
		}
	}
	// Record modified features for parity with JSMA reporting.
	for i := range results {
		for f := range results[i].Adversarial {
			if results[i].Adversarial[f] > results[i].Original[f] {
				results[i].ModifiedFeatures = append(results[i].ModifiedFeatures, f)
			}
		}
	}
	evaluateEvasion(scorerOr(a.Scorer, a.Model), results)
	return results
}
