// Package attack implements the paper's evasion attacks against the DNN
// malware detector: the JSMA (Jacobian-based Saliency Map Approach) with the
// paper's functionality-preserving add-only constraint ("we ensure that only
// API calls are added and not deleting any existing features"), the
// random-addition control from Figure 3, and an add-only FGSM as the
// comparison attack.
//
// Attack strength is parameterized exactly as in the paper: θ is the
// magnitude added to each modified feature, γ is the maximum fraction of the
// 491 features that may be modified (γ·491 ≈ the number of injected API
// calls; γ=0.005 ≈ 2 APIs, γ=0.025 ≈ 12).
package attack

import (
	"fmt"

	"malevade/internal/dataset"
	"malevade/internal/nn"
	"malevade/internal/tensor"
)

// Result is the outcome of attacking one sample.
type Result struct {
	// Adversarial is the perturbed feature vector.
	Adversarial []float64
	// Original is the unmodified input (aliases the caller's row; do not
	// mutate).
	Original []float64
	// ModifiedFeatures lists the vocabulary indices that were perturbed,
	// in the order the attack chose them.
	ModifiedFeatures []int
	// Evaded reports whether the crafting model classifies Adversarial
	// as clean.
	Evaded bool
	// L2 is the perturbation norm ‖adv − orig‖₂.
	L2 float64
}

// Attack crafts adversarial examples against a fixed model. Implementations
// batch internally; Run perturbs every row of x.
type Attack interface {
	// Name identifies the attack in reports.
	Name() string
	// Run perturbs each row of x (assumed malware) and returns one
	// Result per row. The input matrix is not modified.
	Run(x *tensor.Matrix) []Result
}

// FeatureBudget converts γ to the integer feature budget for an input width
// (⌊γ·M⌋, minimum 0).
func FeatureBudget(gamma float64, width int) int {
	if gamma <= 0 {
		return 0
	}
	b := int(gamma * float64(width))
	if b < 0 {
		b = 0
	}
	return b
}

// AdvMatrix packs results into a matrix of adversarial rows aligned with the
// original batch.
func AdvMatrix(results []Result) *tensor.Matrix {
	if len(results) == 0 {
		return tensor.New(0, 0)
	}
	out := tensor.New(len(results), len(results[0].Adversarial))
	for i, r := range results {
		copy(out.Row(i), r.Adversarial)
	}
	return out
}

// Stats summarizes a batch of results against the crafting model.
type Stats struct {
	// N is the number of attacked samples.
	N int
	// EvasionRate is the fraction the crafting model classifies clean.
	EvasionRate float64
	// MeanL2 is the mean perturbation norm over all samples.
	MeanL2 float64
	// MeanModified is the mean number of perturbed features.
	MeanModified float64
}

// Summarize aggregates results.
func Summarize(results []Result) Stats {
	s := Stats{N: len(results)}
	if s.N == 0 {
		return s
	}
	evaded := 0
	for _, r := range results {
		if r.Evaded {
			evaded++
		}
		s.MeanL2 += r.L2
		s.MeanModified += float64(len(r.ModifiedFeatures))
	}
	s.EvasionRate = float64(evaded) / float64(s.N)
	s.MeanL2 /= float64(s.N)
	s.MeanModified /= float64(s.N)
	return s
}

// String renders the stats for logs.
func (s Stats) String() string {
	return fmt.Sprintf("n=%d evasion=%.3f meanL2=%.4f meanModified=%.2f",
		s.N, s.EvasionRate, s.MeanL2, s.MeanModified)
}

// BatchScorer scores a batch of feature rows to logits. Both *nn.Network
// (pooled inference) and *serve.Scorer (the same inference behind the
// engine's CPU slots, counted in its stats) satisfy it; every attack
// judges its final verdicts through one. Implementations must return
// numbers identical to Model.Forward(x, false): JSMA stops stepping a
// sample on the crafting model's own logits, and the final verdict must
// agree with them.
type BatchScorer interface {
	Logits(x *tensor.Matrix) *tensor.Matrix
}

var _ BatchScorer = (*nn.Network)(nil)

// scorerOr returns sc when set, falling back to the crafting model's own
// (serial) inference path.
func scorerOr(sc BatchScorer, model *nn.Network) BatchScorer {
	if sc != nil {
		return sc
	}
	return model
}

// predictsClean reports whether the model's argmax for row i is the clean
// class.
func predictsClean(logits *tensor.Matrix, i int) bool {
	return logits.RowArgmax(i) == dataset.LabelClean
}

// evaluateEvasion computes final Evaded flags and L2 norms for a crafted
// batch.
func evaluateEvasion(sc BatchScorer, results []Result) {
	if len(results) == 0 {
		return
	}
	adv := AdvMatrix(results)
	logits := sc.Logits(adv)
	for i := range results {
		results[i].Evaded = predictsClean(logits, i)
		results[i].L2 = tensor.L2Distance(results[i].Adversarial, results[i].Original)
	}
}
