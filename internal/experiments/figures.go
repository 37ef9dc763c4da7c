package experiments

import (
	"context"
	"fmt"
	"io"

	"malevade/internal/apilog"
	"malevade/internal/attack"
	"malevade/internal/blackbox"
	"malevade/internal/dataset"
	"malevade/internal/detector"
	"malevade/internal/evaluation"
	"malevade/internal/nn"
	"malevade/internal/report"
)

// Paper sweep grids (§III-A/B): γ ∈ [0:0.005:0.030], θ ∈ [0:0.0125:0.15].
var (
	gammaGrid = []float64{0, 0.005, 0.010, 0.015, 0.020, 0.025, 0.030}
	thetaGrid = []float64{0, 0.0125, 0.025, 0.0375, 0.05, 0.0625, 0.075,
		0.0875, 0.1, 0.1125, 0.125, 0.1375, 0.15}
)

// Figure1 reproduces the adversarial-example walkthrough: one malware
// sample, the substitute's JSMA adds a couple of API calls, and the target
// is evaded (the paper's example adds 'destroyicon' and 'dllsload').
func Figure1(l *Lab, w io.Writer) error {
	target, err := l.Target()
	if err != nil {
		return err
	}
	sub, err := l.Substitute()
	if err != nil {
		return err
	}
	mal, err := l.TestMalware()
	if err != nil {
		return err
	}
	// Pick the first sample whose grey-box attack succeeds against the
	// target, preferring few modified features.
	j := &attack.JSMA{Model: sub.Net, Theta: 0.1, Gamma: 0.03}
	results := j.Run(mal.X)
	pick := -1
	for i, r := range results {
		adv := attack.AdvMatrix(results[i : i+1])
		if len(r.ModifiedFeatures) > 0 && len(r.ModifiedFeatures) <= 3 &&
			detector.DetectionRate(target, adv) == 0 {
			pick = i
			break
		}
	}
	if pick == -1 {
		for i, r := range results {
			if len(r.ModifiedFeatures) > 0 {
				pick = i
				break
			}
		}
	}
	if pick == -1 {
		return fmt.Errorf("experiments: figure 1 found no modified sample")
	}
	r := results[pick]
	before := target.Confidence(r.Original)
	after := target.Confidence(r.Adversarial)
	fmt.Fprintln(w, "FIGURE 1: GENERATING AN ADVERSARIAL EXAMPLE FOR MALWARE")
	fmt.Fprintf(w, "sample: %s (491 features, %d active)\n", mal.Fams[pick], activeCount(r.Original))
	fmt.Fprintf(w, "original:     P(malware) = %.4f  -> detected as MALWARE\n", before)
	fmt.Fprintf(w, "added API calls (substitute JSMA, theta=0.1):\n")
	for _, f := range r.ModifiedFeatures {
		fmt.Fprintf(w, "  + %-28s (feature %3d: %.3f -> %.3f)\n",
			apilog.Name(f), f, r.Original[f], r.Adversarial[f])
	}
	verdict := "MALWARE"
	if after < 0.5 {
		verdict = "BENIGN (evaded)"
	}
	fmt.Fprintf(w, "adversarial:  P(malware) = %.4f  -> detected as %s\n", after, verdict)
	fmt.Fprintf(w, "(the paper's example adds 'destroyicon' and 'dllsload')\n")
	return nil
}

func activeCount(x []float64) int {
	n := 0
	for _, v := range x {
		if v > 0 {
			n++
		}
	}
	return n
}

// Figure3a is the white-box γ sweep at θ=0.1 with the random-addition
// control ("randomly adding features does not decrease the detection
// rates").
func Figure3a(l *Lab, w io.Writer) error {
	target, err := l.Target()
	if err != nil {
		return err
	}
	mal, err := l.TestMalware()
	if err != nil {
		return err
	}
	jsmaCurve, err := evaluation.Sweep(evaluation.SweepSpec{
		Name:   "JSMA",
		Param:  "gamma",
		Values: gammaGrid,
		MakeAttack: func(g float64) attack.Attack {
			return &attack.JSMA{Model: target.Net, Theta: 0.1, Gamma: g}
		},
		Target: target,
	}, mal.X, l.Serial)
	if err != nil {
		return err
	}
	randCurve, err := evaluation.Sweep(evaluation.SweepSpec{
		Name:   "random add",
		Param:  "gamma",
		Values: gammaGrid,
		MakeAttack: func(g float64) attack.Attack {
			return &attack.RandomAdd{Model: target.Net, Theta: 0.1, Gamma: g, Seed: l.Profile.Seed + 41}
		},
		Target: target,
	}, mal.X, l.Serial)
	if err != nil {
		return err
	}
	return renderCurves(w, "FIGURE 3(a): WHITE-BOX SECURITY EVALUATION (theta=0.100)",
		"gamma (fraction of perturbed features)", jsmaCurve, randCurve)
}

// Figure3b is the white-box θ sweep at γ=0.025.
func Figure3b(l *Lab, w io.Writer) error {
	target, err := l.Target()
	if err != nil {
		return err
	}
	mal, err := l.TestMalware()
	if err != nil {
		return err
	}
	curve, err := evaluation.Sweep(evaluation.SweepSpec{
		Name:   "JSMA",
		Param:  "theta",
		Values: thetaGrid,
		MakeAttack: func(th float64) attack.Attack {
			return &attack.JSMA{Model: target.Net, Theta: th, Gamma: 0.025}
		},
		Target: target,
	}, mal.X, l.Serial)
	if err != nil {
		return err
	}
	return renderCurves(w, "FIGURE 3(b): WHITE-BOX SECURITY EVALUATION (gamma=0.025)",
		"theta (perturbation magnitude)", curve)
}

// Figure4a is the grey-box γ sweep at θ=0.1: crafted on the substitute,
// evaluated on both models.
func Figure4a(l *Lab, w io.Writer) error {
	return greyBoxSweep(l, w, "FIGURE 4(a): GREY-BOX SECURITY EVALUATION (theta=0.100)",
		"gamma", gammaGrid, func(net *nn.Network, v float64) attack.Attack {
			return &attack.JSMA{Model: net, Theta: 0.1, Gamma: v}
		})
}

// Figure4b is the grey-box θ sweep at γ=0.005 (two modified features — the
// paper's headline operating point with target detection 0.147).
func Figure4b(l *Lab, w io.Writer) error {
	return greyBoxSweep(l, w, "FIGURE 4(b): GREY-BOX SECURITY EVALUATION (gamma=0.005)",
		"theta", thetaGrid, func(net *nn.Network, v float64) attack.Attack {
			return &attack.JSMA{Model: net, Theta: v, Gamma: 0.005}
		})
}

func greyBoxSweep(l *Lab, w io.Writer, title, param string, grid []float64,
	mk func(net *nn.Network, v float64) attack.Attack) error {
	target, err := l.Target()
	if err != nil {
		return err
	}
	sub, err := l.Substitute()
	if err != nil {
		return err
	}
	mal, err := l.TestMalware()
	if err != nil {
		return err
	}
	targetCurve, err := evaluation.Sweep(evaluation.SweepSpec{
		Name:       "target model",
		Param:      param,
		Values:     grid,
		MakeAttack: func(v float64) attack.Attack { return mk(sub.Net, v) },
		Target:     target,
	}, mal.X, l.Serial)
	if err != nil {
		return err
	}
	// The substitute's own detection (CraftDetectionRate) is the second
	// series of the paper's Figure 4 plots.
	subCurve := &evaluation.Curve{Name: "substitute model", Param: param}
	for _, p := range targetCurve.Pts {
		subCurve.Pts = append(subCurve.Pts, evaluation.CurvePoint{
			Strength:      p.Strength,
			DetectionRate: p.CraftDetectionRate,
		})
	}
	if err := renderCurves(w, title, param, targetCurve, subCurve); err != nil {
		return err
	}
	// Report the paper's headline transfer metric at the strongest point.
	last := targetCurve.Pts[len(targetCurve.Pts)-1]
	fmt.Fprintf(w, "operating point %s=%.4g: target detection %.3f, transfer rate %.3f\n",
		param, last.Strength, last.DetectionRate, 1-last.DetectionRate)
	return nil
}

// Figure4c is grey-box experiment 2: the substitute sees only binary
// features; its adversarial "add this API" decisions are replayed against
// the target by adding each API once in count space. The attack collapses
// the substitute but transfers poorly — the attacker's feature-knowledge
// gap matters.
func Figure4c(l *Lab, w io.Writer) error {
	target, err := l.Target()
	if err != nil {
		return err
	}
	bsub, err := l.BinarySubstitute()
	if err != nil {
		return err
	}
	mal, err := l.TestMalware()
	if err != nil {
		return err
	}
	binView := mal.BinaryView()

	targetCurve := &evaluation.Curve{Name: "target model", Param: "gamma",
		Pts: make([]evaluation.CurvePoint, len(gammaGrid))}
	subCurve := &evaluation.Curve{Name: "substitute (binary)", Param: "gamma",
		Pts: make([]evaluation.CurvePoint, len(gammaGrid))}
	evaluation.FanOut(len(gammaGrid), l.Serial, func(pi int) {
		g := gammaGrid[pi]
		j := &attack.JSMA{Model: bsub.Net, Theta: 1.0, Gamma: g} // binary: set to 1
		results := j.Run(binView.X)
		stats := attack.Summarize(results)

		// Replay in the target's count space: each newly set API is
		// "added once" to the sample's raw counts.
		advTarget := mal.X.Clone()
		for i, r := range results {
			counts := append([]float64(nil), mal.Counts.Row(i)...)
			for _, f := range r.ModifiedFeatures {
				counts[f]++
			}
			copy(advTarget.Row(i), dataset.Normalize(counts))
		}
		targetCurve.Pts[pi] = evaluation.CurvePoint{
			Strength:      g,
			DetectionRate: detector.DetectionRate(target, advTarget),
		}
		subCurve.Pts[pi] = evaluation.CurvePoint{
			Strength:      g,
			DetectionRate: 1 - stats.EvasionRate,
		}
	})
	if err := renderCurves(w, "FIGURE 4(c): GREY-BOX WITH BINARY FEATURES (theta=0.100)",
		"gamma", targetCurve, subCurve); err != nil {
		return err
	}
	last := targetCurve.Pts[len(targetCurve.Pts)-1]
	fmt.Fprintf(w, "strongest point: target detection %.3f (paper: 0.6951), transfer %.3f (paper: 0.3049)\n",
		last.DetectionRate, 1-last.DetectionRate)
	return nil
}

// Figure5 reports the L2 distance analysis over both grey-box sweeps:
// d(malware, advEx), d(malware, clean), d(clean, advEx).
func Figure5(l *Lab, w io.Writer) error {
	sub, err := l.Substitute()
	if err != nil {
		return err
	}
	c, err := l.Corpus()
	if err != nil {
		return err
	}
	mal, err := l.TestMalware()
	if err != nil {
		return err
	}
	clean := c.Test.FilterLabel(dataset.LabelClean)

	render := func(title, param string, grid []float64, mk func(v float64) *attack.JSMA) error {
		series := []report.Series{
			{Name: "d(malware, advEx)"},
			{Name: "d(malware, clean)"},
			{Name: "d(clean, advEx)"},
		}
		analyses := make([]evaluation.L2Analysis, len(grid))
		evaluation.FanOut(len(grid), l.Serial, func(pi int) {
			v := grid[pi]
			analyses[pi] = evaluation.AnalyzeL2(v, mk(v).Run(mal.X), clean.X)
		})
		for i, an := range analyses {
			v := grid[i]
			series[0].X = append(series[0].X, v)
			series[0].Y = append(series[0].Y, an.MalwareToAdv)
			series[1].X = append(series[1].X, v)
			series[1].Y = append(series[1].Y, an.MalwareToClean)
			series[2].X = append(series[2].X, v)
			series[2].Y = append(series[2].Y, an.CleanToAdv)
		}
		chart := &report.Chart{Title: title, XLabel: param, YLabel: "mean L2 distance", Series: series}
		return chart.Render(w)
	}
	if err := render("FIGURE 5(a): L2 DISTANCES, GREY-BOX (theta=0.100)", "gamma", gammaGrid,
		func(v float64) *attack.JSMA {
			return &attack.JSMA{Model: sub.Net, Theta: 0.1, Gamma: v}
		}); err != nil {
		return err
	}
	return render("FIGURE 5(b): L2 DISTANCES, GREY-BOX (gamma=0.005)", "theta", thetaGrid,
		func(v float64) *attack.JSMA {
			return &attack.JSMA{Model: sub.Net, Theta: v, Gamma: 0.005}
		})
}

// Figure2 demonstrates the black-box framework end to end: a label-only
// oracle, Jacobian-augmentation substitute training, JSMA on the substitute,
// transfer to the target, with the query budget reported.
func Figure2(l *Lab, w io.Writer) error {
	target, err := l.Target()
	if err != nil {
		return err
	}
	ac, err := l.AttackerCorpus()
	if err != nil {
		return err
	}
	mal, err := l.TestMalware()
	if err != nil {
		return err
	}
	oracle := blackbox.NewDetectorOracle(target)
	seed := blackbox.SeedSet(ac.Val, 40, l.Profile.Seed+43)
	res, err := blackbox.TrainSubstitute(context.Background(), oracle, seed, blackbox.SubstituteConfig{
		Arch:           detector.ArchTarget,
		WidthScale:     l.Profile.TargetWidthScale,
		Rounds:         4,
		EpochsPerRound: l.Profile.TargetEpochs / 2,
		Seed:           l.Profile.Seed + 47,
		Log:            l.Log,
	})
	if err != nil {
		return err
	}
	agreement := blackbox.AgreementWithTarget(res.Model, target, mal.X)
	j := &attack.JSMA{Model: res.Model.Net, Theta: 0.1, Gamma: 0.03}
	adv := attack.AdvMatrix(j.Run(mal.X))
	baseline := detector.DetectionRate(target, mal.X)
	attacked := detector.DetectionRate(target, adv)

	fmt.Fprintln(w, "FIGURE 2: GREY/BLACK-BOX ATTACK FRAMEWORK (real-world setting)")
	fmt.Fprintf(w, "oracle queries used:            %d (label-only access)\n", res.QueriesUsed)
	fmt.Fprintf(w, "substitute training set:        %d samples (Jacobian augmentation)\n", res.TrainingSetSize)
	fmt.Fprintf(w, "substitute/target agreement:    %.3f\n", agreement)
	fmt.Fprintf(w, "target detection (no attack):   %.3f\n", baseline)
	fmt.Fprintf(w, "target detection (under attack):%.3f\n", attacked)
	fmt.Fprintf(w, "transfer rate:                  %.3f\n", 1-attacked)
	return nil
}

func renderCurves(w io.Writer, title, xlabel string, curves ...*evaluation.Curve) error {
	chart := &report.Chart{Title: title, XLabel: xlabel, YLabel: "detection rate"}
	for _, c := range curves {
		s := report.Series{Name: c.Name}
		for _, p := range c.Pts {
			s.X = append(s.X, p.Strength)
			s.Y = append(s.Y, p.DetectionRate)
		}
		chart.Series = append(chart.Series, s)
	}
	if err := chart.Render(w); err != nil {
		return err
	}
	// Numeric rows under the chart for exact comparison.
	t := report.NewTable("", append([]string{"series"}, formatStrengths(curves[0])...)...)
	for _, c := range curves {
		cells := []string{c.Name}
		for _, p := range c.Pts {
			cells = append(cells, fmt.Sprintf("%.3f", p.DetectionRate))
		}
		t.AddRow(cells...)
	}
	return t.Render(w)
}

func formatStrengths(c *evaluation.Curve) []string {
	out := make([]string, 0, len(c.Pts))
	for _, p := range c.Pts {
		out = append(out, fmt.Sprintf("%.4g", p.Strength))
	}
	return out
}
