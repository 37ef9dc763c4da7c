// Package evaluation implements the paper's metrics (§II-D): the confusion
// matrix (TPR/TNR/FPR/FNR) for defense evaluation, detection rate and
// security-evaluation curves (detection rate as a function of attack
// strength) for attack evaluation, transfer rate for the grey/black-box
// settings, and the L2 distance analysis of Figure 5.
package evaluation

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"malevade/internal/attack"
	"malevade/internal/dataset"
	"malevade/internal/detector"
	"malevade/internal/tensor"
)

// ConfusionMatrix holds the four rates of the paper's defense evaluation.
// Rates are NaN when their denominator class is absent, matching the
// "nan" cells of Table VI.
type ConfusionMatrix struct {
	TP, TN, FP, FN int
}

// Evaluate builds a confusion matrix from detector predictions on a
// labelled dataset.
func Evaluate(d detector.Detector, ds *dataset.Dataset) ConfusionMatrix {
	var cm ConfusionMatrix
	if ds.Len() == 0 {
		return cm
	}
	pred := d.Predict(ds.X)
	for i, p := range pred {
		switch {
		case ds.Y[i] == dataset.LabelMalware && p == dataset.LabelMalware:
			cm.TP++
		case ds.Y[i] == dataset.LabelMalware && p == dataset.LabelClean:
			cm.FN++
		case ds.Y[i] == dataset.LabelClean && p == dataset.LabelClean:
			cm.TN++
		default:
			cm.FP++
		}
	}
	return cm
}

// TPR is TP/(TP+FN); NaN without positives.
func (c ConfusionMatrix) TPR() float64 { return ratio(c.TP, c.TP+c.FN) }

// TNR is TN/(TN+FP); NaN without negatives.
func (c ConfusionMatrix) TNR() float64 { return ratio(c.TN, c.TN+c.FP) }

// FPR is FP/(FP+TN); NaN without negatives.
func (c ConfusionMatrix) FPR() float64 { return ratio(c.FP, c.FP+c.TN) }

// FNR is FN/(FN+TP); NaN without positives.
func (c ConfusionMatrix) FNR() float64 { return ratio(c.FN, c.FN+c.TP) }

// Accuracy is (TP+TN)/total; NaN for an empty matrix.
func (c ConfusionMatrix) Accuracy() float64 {
	return ratio(c.TP+c.TN, c.TP+c.TN+c.FP+c.FN)
}

func ratio(num, den int) float64 {
	if den == 0 {
		return math.NaN()
	}
	return float64(num) / float64(den)
}

// String renders the matrix compactly.
func (c ConfusionMatrix) String() string {
	return fmt.Sprintf("TP=%d TN=%d FP=%d FN=%d TPR=%.3f TNR=%.3f",
		c.TP, c.TN, c.FP, c.FN, c.TPR(), c.TNR())
}

// CurvePoint is one point of a security evaluation curve.
type CurvePoint struct {
	// Strength is the swept attack parameter (γ or θ).
	Strength float64
	// DetectionRate is the target's detection rate on the adversarial
	// examples crafted at this strength.
	DetectionRate float64
	// CraftDetectionRate is the crafting model's own detection rate
	// (equal to DetectionRate in the white-box setting).
	CraftDetectionRate float64
	// MeanL2 is the mean perturbation size at this strength.
	MeanL2 float64
	// MeanModified is the mean number of modified features.
	MeanModified float64
}

// Curve is a security evaluation curve: detection rate vs attack strength
// (Figures 3 and 4 of the paper).
type Curve struct {
	// Name labels the curve ("white-box θ=0.1", ...).
	Name string
	// Param names the swept parameter ("gamma" or "theta").
	Param string
	Pts   []CurvePoint
}

// SweepSpec defines a security-curve sweep. One spec serves serial and
// concurrent sweeps alike: its attacks may all craft on one shared
// network, since input gradients only read the weights.
type SweepSpec struct {
	// Name labels the resulting curve.
	Name string
	// Param names the swept parameter for reporting.
	Param string
	// Values are the strengths to evaluate.
	Values []float64
	// MakeAttack builds the attack for a given strength value. Sweep may
	// call it from several goroutines at once, and the attacks it builds
	// may share one crafting network: gradients and scoring only read the
	// weights.
	MakeAttack func(strength float64) attack.Attack
	// Target scores the crafted adversarial examples. In the white-box
	// setting it is the crafting model; in grey/black-box settings it
	// differs. Unless the sweep is serial it must be safe for concurrent
	// scoring (detector.DNN and serve.Scorer are).
	Target detector.Detector
	// Transform optionally maps crafted adversarial feature rows into
	// the target's feature space (the binary→count replay of the
	// paper's grey-box experiment 2). Nil means identity.
	Transform func(adv []float64, original []float64) []float64
}

// Sweep runs the attack at every strength against the malware matrix and
// returns the security evaluation curve. Strengths fan out across the
// available cores, or run strictly in order when serial is true; curve
// points come back in Values order either way, and every attack in this
// repository is deterministic per strength, so the curve does not depend
// on scheduling.
func Sweep(spec SweepSpec, malware *tensor.Matrix, serial bool) (*Curve, error) {
	if spec.MakeAttack == nil || spec.Target == nil {
		return nil, fmt.Errorf("evaluation: sweep %q needs MakeAttack and Target", spec.Name)
	}
	if len(spec.Values) == 0 {
		return nil, fmt.Errorf("evaluation: sweep %q has no strengths", spec.Name)
	}
	curve := &Curve{Name: spec.Name, Param: spec.Param}
	curve.Pts = make([]CurvePoint, len(spec.Values))
	FanOut(len(spec.Values), serial, func(i int) {
		v := spec.Values[i]
		results := spec.MakeAttack(v).Run(malware)
		stats := attack.Summarize(results)
		adv := attack.AdvMatrix(results)
		if spec.Transform != nil {
			for r := range results {
				mapped := spec.Transform(results[r].Adversarial, results[r].Original)
				copy(adv.Row(r), mapped)
			}
		}
		curve.Pts[i] = CurvePoint{
			Strength:           v,
			DetectionRate:      detector.DetectionRate(spec.Target, adv),
			CraftDetectionRate: 1 - stats.EvasionRate,
			MeanL2:             stats.MeanL2,
			MeanModified:       stats.MeanModified,
		}
	})
	return curve, nil
}

// FanOut runs point(i) for every i in [0,n) across min(GOMAXPROCS, n)
// worker goroutines — or strictly in order when serial is true. point must
// write its result into an index-addressed slot, which keeps output
// identical to a serial run. Sweep and the experiment drivers share this
// scaffold.
func FanOut(n int, serial bool, point func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if serial || workers <= 1 {
		for i := 0; i < n; i++ {
			point(i)
		}
		return
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				point(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// TransferRate is the paper's grey/black-box headline metric: the fraction
// of adversarial examples that evade the *target* model (1 − target
// detection rate).
func TransferRate(target detector.Detector, adv *tensor.Matrix) float64 {
	if adv.Rows == 0 {
		return 0
	}
	return 1 - detector.DetectionRate(target, adv)
}

// L2Analysis holds Figure 5's three inter-population distances at one attack
// strength.
type L2Analysis struct {
	Strength float64
	// MalwareToAdv is the mean L2 distance between each malware sample
	// and its own adversarial example.
	MalwareToAdv float64
	// MalwareToClean is the mean L2 distance from each malware sample to
	// the mean clean vector (the population-level separation).
	MalwareToClean float64
	// CleanToAdv is the mean L2 distance from each adversarial example
	// to the mean clean vector.
	CleanToAdv float64
}

// AnalyzeL2 computes Figure 5's distance triple for one attack run.
// clean supplies the clean population; results pair originals with their
// adversarial examples.
func AnalyzeL2(strength float64, results []attack.Result, clean *tensor.Matrix) L2Analysis {
	out := L2Analysis{Strength: strength}
	if len(results) == 0 || clean.Rows == 0 {
		return out
	}
	centroid := make([]float64, clean.Cols)
	clean.ColMeans(centroid)
	n := float64(len(results))
	for _, r := range results {
		out.MalwareToAdv += tensor.L2Distance(r.Original, r.Adversarial)
		out.MalwareToClean += tensor.L2Distance(r.Original, centroid)
		out.CleanToAdv += tensor.L2Distance(r.Adversarial, centroid)
	}
	out.MalwareToAdv /= n
	out.MalwareToClean /= n
	out.CleanToAdv /= n
	return out
}
