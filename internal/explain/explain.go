// Package explain implements the paper's stated future work — "we will
// study the interpretability of adversarial examples to develop more
// effective defenses" — with gradient×input feature attribution over the
// 491 API features: which API calls carry a given verdict, and which
// attributions an adversarial example perturbed.
//
// The approach follows the interpretable-ML line the paper cites (Demetrio
// et al., ref [19]): attribution of feature j for class c is
// x_j · ∂F_c/∂x_j, the first-order contribution of that feature to the
// class probability.
package explain

import (
	"fmt"
	"io"
	"sort"

	"malevade/internal/apilog"
	"malevade/internal/detector"
	"malevade/internal/tensor"
)

// Attribution is one feature's contribution to a verdict.
type Attribution struct {
	// Feature is the vocabulary index.
	Feature int
	// API is the vocabulary name.
	API string
	// Value is the feature's input value.
	Value float64
	// Score is the gradient×input attribution toward the malware class;
	// negative scores are clean evidence.
	Score float64
}

// Explanation summarizes one sample's verdict.
type Explanation struct {
	// MalwareProb is the model's P(malware|x).
	MalwareProb float64
	// Attributions holds every non-zero-score feature, sorted by
	// descending |Score|.
	Attributions []Attribution
}

// Explain attributes a single sample's verdict over the input features.
func Explain(d *detector.DNN, x []float64) (*Explanation, error) {
	if len(x) != d.InDim() {
		return nil, fmt.Errorf("explain: input width %d, want %d", len(x), d.InDim())
	}
	xm := tensor.FromSlice(1, len(x), append([]float64(nil), x...))
	grad, _ := d.Net.ClassGradient(xm, 1 /* malware */, 1)
	out := &Explanation{MalwareProb: d.Confidence(x)}
	for f, g := range grad.Row(0) {
		score := x[f] * g
		if score == 0 {
			continue
		}
		out.Attributions = append(out.Attributions, Attribution{
			Feature: f,
			API:     apilog.Name(f),
			Value:   x[f],
			Score:   score,
		})
	}
	sort.Slice(out.Attributions, func(i, j int) bool {
		return abs(out.Attributions[i].Score) > abs(out.Attributions[j].Score)
	})
	return out, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// Top returns the k strongest attributions (fewer if the sample has fewer).
func (e *Explanation) Top(k int) []Attribution {
	if k > len(e.Attributions) {
		k = len(e.Attributions)
	}
	return e.Attributions[:k]
}

// TopEvidence splits the strongest attributions by sign: malware evidence
// (positive) and clean evidence (negative), up to k each.
func (e *Explanation) TopEvidence(k int) (malware, clean []Attribution) {
	for _, a := range e.Attributions {
		if a.Score > 0 && len(malware) < k {
			malware = append(malware, a)
		}
		if a.Score < 0 && len(clean) < k {
			clean = append(clean, a)
		}
		if len(malware) == k && len(clean) == k {
			break
		}
	}
	return malware, clean
}

// Render writes a human-readable explanation.
func (e *Explanation) Render(w io.Writer, k int) error {
	if _, err := fmt.Fprintf(w, "P(malware) = %.4f\n", e.MalwareProb); err != nil {
		return err
	}
	mal, clean := e.TopEvidence(k)
	if _, err := fmt.Fprintln(w, "malware evidence:"); err != nil {
		return err
	}
	for _, a := range mal {
		if _, err := fmt.Fprintf(w, "  %-28s value=%.3f score=%+.4f\n", a.API, a.Value, a.Score); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w, "clean evidence:"); err != nil {
		return err
	}
	for _, a := range clean {
		if _, err := fmt.Fprintf(w, "  %-28s value=%.3f score=%+.4f\n", a.API, a.Value, a.Score); err != nil {
			return err
		}
	}
	return nil
}

// DiffAttribution compares original and adversarial explanations of one
// sample: which features the attack touched and how the attribution moved.
type DiffAttribution struct {
	Feature   int
	API       string
	DeltaX    float64 // feature change introduced by the attack
	OrigScore float64
	AdvScore  float64
}

// DiffExplanations pairs two explanations of the same sample (original and
// adversarial) and returns the features whose input changed, sorted by
// |DeltaX| descending. This is the "interpretability of adversarial
// examples" view: it names the APIs the attack added and shows how much
// clean evidence each injected.
func DiffExplanations(d *detector.DNN, original, adversarial []float64) ([]DiffAttribution, error) {
	if len(original) != len(adversarial) {
		return nil, fmt.Errorf("explain: length mismatch %d vs %d", len(original), len(adversarial))
	}
	origEx, err := Explain(d, original)
	if err != nil {
		return nil, err
	}
	advEx, err := Explain(d, adversarial)
	if err != nil {
		return nil, err
	}
	origScores := scoresByFeature(origEx)
	advScores := scoresByFeature(advEx)
	var out []DiffAttribution
	for f := range original {
		delta := adversarial[f] - original[f]
		if delta == 0 {
			continue
		}
		out = append(out, DiffAttribution{
			Feature:   f,
			API:       apilog.Name(f),
			DeltaX:    delta,
			OrigScore: origScores[f],
			AdvScore:  advScores[f],
		})
	}
	sort.Slice(out, func(i, j int) bool { return abs(out[i].DeltaX) > abs(out[j].DeltaX) })
	return out, nil
}

func scoresByFeature(e *Explanation) map[int]float64 {
	m := make(map[int]float64, len(e.Attributions))
	for _, a := range e.Attributions {
		m[a.Feature] = a.Score
	}
	return m
}
