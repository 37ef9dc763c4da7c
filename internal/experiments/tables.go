package experiments

import (
	"fmt"
	"io"
	"strings"

	"malevade/internal/apilog"
	"malevade/internal/attack"
	"malevade/internal/dataset"
	"malevade/internal/defense"
	"malevade/internal/detector"
	"malevade/internal/evaluation"
	"malevade/internal/report"
)

// TableI reproduces the dataset table: split sizes per class at the active
// profile, alongside the paper's full-scale numbers.
func TableI(l *Lab, w io.Writer) error {
	c, err := l.Corpus()
	if err != nil {
		return err
	}
	t := report.NewTable("TABLE I: THE DATASET", "Dataset", "This run", "Paper")
	t.AddRow("Training Set",
		fmt.Sprintf("%d (%d clean, %d malware)", c.Train.Len(), c.Train.NumClean(), c.Train.NumMalware()),
		"57170 (28594 clean, 28576 malware)")
	t.AddRow("Validation Set",
		fmt.Sprintf("%d (%d clean, %d malware)", c.Val.Len(), c.Val.NumClean(), c.Val.NumMalware()),
		"578 (280 clean, 298 malware)")
	t.AddRow("Test Set",
		fmt.Sprintf("%d (%d clean, %d malware)", c.Test.Len(), c.Test.NumClean(), c.Test.NumMalware()),
		"45028 (16154 clean, 28874 malware)")
	return t.Render(w)
}

// TableII renders a log-file excerpt produced by the sandbox simulator in
// the paper's exact syntax.
func TableII(l *Lab, w io.Writer) error {
	c, err := l.Corpus()
	if err != nil {
		return err
	}
	mal := c.Test.FilterLabel(dataset.LabelMalware)
	if mal.Len() == 0 {
		return fmt.Errorf("experiments: no malware for Table II")
	}
	sb := apilog.NewSandbox(apilog.Win7, l.Profile.Seed+23)
	entries, err := sb.Run(mal.Counts.Row(0))
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "TABLE II: EXCERPT OF A LOG FILE"); err != nil {
		return err
	}
	n := len(entries)
	if n > 10 {
		n = 10
	}
	var b strings.Builder
	if err := apilog.WriteLog(&b, entries[:n]); err != nil {
		return err
	}
	_, err = io.WriteString(w, b.String())
	return err
}

// TableIII renders the vocabulary excerpt at indices 475-484, which must
// match the paper verbatim.
func TableIII(_ *Lab, w io.Writer) error {
	t := report.NewTable("TABLE III: EXCERPT OF THE API FEATURES", "Index", "API")
	for i := apilog.ExcerptStart; i <= apilog.ExcerptEnd; i++ {
		t.AddRow(fmt.Sprintf("%d", i), apilog.Name(i))
	}
	return t.Render(w)
}

// TableIV reports the substitute architecture: the paper's widths and this
// profile's scaled widths, with parameter counts.
func TableIV(l *Lab, w io.Writer) error {
	sub, err := l.Substitute()
	if err != nil {
		return err
	}
	paper := detector.ArchSubstitute.Dims(apilog.NumFeatures, 1)
	scaled := detector.ArchSubstitute.Dims(apilog.NumFeatures, l.Profile.SubstituteWidthScale)
	t := report.NewTable("TABLE IV: THE SUBSTITUTE MODEL", "Layer", "Paper width", "This run")
	for i := range paper {
		label := fmt.Sprintf("layer %d", i+1)
		if i == 0 {
			label += " (input)"
		}
		if i == len(paper)-1 {
			label += " (logits)"
		}
		t.AddRow(label, fmt.Sprintf("%d", paper[i]), fmt.Sprintf("%d", scaled[i]))
	}
	t.AddRow("parameters", "~5.3M", fmt.Sprintf("%d", sub.Net.NumParams()))
	t.AddRow("training data", "57170 balanced", "attacker corpus (balanced)")
	return t.Render(w)
}

// TableV builds the adversarial-training dataset (grey-box advEx at θ=0.1,
// γ=0.02, deduplicated) and reports its composition against the paper's.
func TableV(l *Lab, w io.Writer) error {
	sets, _, err := advTrainingSets(l)
	if err != nil {
		return err
	}
	t := report.NewTable("TABLE V: ADVERSARIAL TRAINING DATASET", "Dataset", "This run", "Paper")
	t.AddRow("Training Set",
		fmt.Sprintf("%d (%d clean, %d malware+advEx; %d dups removed)",
			sets.Train.Len(), sets.Train.NumClean(), sets.Train.NumMalware(), sets.Duplicates),
		"53482 (26118 clean, 27364 malware and advEx)")
	adv, err := l.GreyAdvExamples()
	if err != nil {
		return err
	}
	c, err := l.Corpus()
	if err != nil {
		return err
	}
	t.AddRow("Test Set",
		fmt.Sprintf("%d (%d clean, %d malware and %d advEx)",
			c.Test.Len()+adv.Rows, c.Test.NumClean(), c.Test.NumMalware(), adv.Rows),
		"26560 (5090 clean, 5252 malware and 16218 advEx)")
	return t.Render(w)
}

// advTrainingSets crafts grey-box advEx from *training* malware and builds
// the Table V training set.
func advTrainingSets(l *Lab) (*defense.AdvTrainingSets, *detector.DNN, error) {
	c, err := l.Corpus()
	if err != nil {
		return nil, nil, err
	}
	sub, err := l.Substitute()
	if err != nil {
		return nil, nil, err
	}
	trainMal := c.Train.FilterLabel(dataset.LabelMalware)
	if cap := l.Profile.AttackCap; cap > 0 && trainMal.Len() > cap*4 {
		idx := make([]int, cap*4)
		for i := range idx {
			idx[i] = i
		}
		trainMal = trainMal.Subset(idx)
	}
	j := &attack.JSMA{Model: sub.Net, Theta: 0.1, Gamma: 0.02}
	advX := attack.AdvMatrix(j.Run(trainMal.X))
	sets, err := defense.BuildAdvTrainingSet(c.Train, advX)
	if err != nil {
		return nil, nil, err
	}
	return sets, sub, nil
}

// DefenseRow is one Table VI block: rates per test population for one
// defense.
type DefenseRow struct {
	Name    string
	CleanCM evaluation.ConfusionMatrix
	MalCM   evaluation.ConfusionMatrix
	AdvRate float64 // detection rate on the advEx population
}

// TableVI runs all four defenses against the fixed grey-box advEx set and
// reports TPR/TNR per population, mirroring the paper's layout (nan where a
// rate's class is absent).
func TableVI(l *Lab, w io.Writer) error {
	rows, err := DefenseResults(l)
	if err != nil {
		return err
	}
	t := report.NewTable("TABLE VI: DEFENSE TESTING RESULTS", "Defense", "Dataset", "TPR", "TNR")
	for _, r := range rows {
		t.AddRow(r.Name, "Clean Test", report.Fmt(r.CleanCM.TPR()), report.Fmt(r.CleanCM.TNR()))
		t.AddRow("", "Malware Test", report.Fmt(r.MalCM.TPR()), report.Fmt(r.MalCM.TNR()))
		t.AddRow("", "AdvExamples", report.Fmt(r.AdvRate), "nan")
	}
	return t.Render(w)
}

// DefenseResults computes the Table VI rows programmatically (used by the
// table driver, benches and tests).
func DefenseResults(l *Lab) ([]DefenseRow, error) {
	c, err := l.Corpus()
	if err != nil {
		return nil, err
	}
	target, err := l.targetForDefense()
	if err != nil {
		return nil, err
	}
	adv, err := l.GreyAdvExamples()
	if err != nil {
		return nil, err
	}
	clean := c.Test.FilterLabel(dataset.LabelClean)
	mal, err := l.TestMalware()
	if err != nil {
		return nil, err
	}

	evalOne := func(name string, d detector.Detector) DefenseRow {
		return DefenseRow{
			Name:    name,
			CleanCM: evaluation.Evaluate(d, clean),
			MalCM:   evaluation.Evaluate(d, mal),
			AdvRate: detector.DetectionRate(d, adv),
		}
	}

	rows := []DefenseRow{evalOne("No Defense", target)}

	// Adversarial training.
	sets, _, err := advTrainingSets(l)
	if err != nil {
		return nil, err
	}
	advTrained, err := defense.AdversarialTraining(sets, detector.TrainConfig{
		Arch:       detector.ArchTarget,
		WidthScale: l.Profile.TargetWidthScale,
		Epochs:     l.Profile.TargetEpochs,
		BatchSize:  l.Profile.BatchSize,
		Seed:       l.Profile.Seed + 29,
		Log:        l.Log,
	})
	if err != nil {
		return nil, err
	}
	rows = append(rows, evalOne("AdvTraining", advTrained))

	// Defensive distillation at T=50 (longer training so the gradient
	// masking regime is reached; see defense package tests).
	distilled, err := defense.Distill(c.Train, defense.DistillConfig{
		Temperature: 50,
		Arch:        detector.ArchTarget,
		WidthScale:  l.Profile.TargetWidthScale,
		Epochs:      l.Profile.TargetEpochs * 5 / 2,
		BatchSize:   l.Profile.BatchSize,
		Seed:        l.Profile.Seed + 31,
		Log:         l.Log,
	})
	if err != nil {
		return nil, err
	}
	rows = append(rows, evalOne("Distillation", distilled))

	// Feature squeezing, calibrated on validation clean at 5% FPR.
	valClean := c.Val.FilterLabel(dataset.LabelClean)
	fs, err := defense.NewFeatureSqueezing(target, defense.BitDepthSqueezer{Bits: 3}, valClean.X, 0.05)
	if err != nil {
		return nil, err
	}
	rows = append(rows, evalOne("FeaSqueezing", fs))

	// PCA dimensionality reduction at the paper's K=19.
	dr, err := defense.NewDimReduction(c.Train, defense.DimReductionConfig{
		K: 19,
		Train: detector.TrainConfig{
			Arch:       detector.ArchTarget,
			WidthScale: l.Profile.TargetWidthScale,
			Epochs:     l.Profile.TargetEpochs,
			BatchSize:  l.Profile.BatchSize,
			Seed:       l.Profile.Seed + 37,
			Log:        l.Log,
		},
	})
	if err != nil {
		return nil, err
	}
	rows = append(rows, evalOne("DimReduct", dr))

	// Ensemble of adversarial training + dimensionality reduction — the
	// combination the paper's §III-C suggests ("we may consider ensemble
	// adversarial training and dimension reduction").
	ens, err := defense.NewEnsemble(defense.EnsembleMaxProb, advTrained, dr)
	if err != nil {
		return nil, err
	}
	rows = append(rows, evalOne("Ensemble(AT+DR)", ens))
	return rows, nil
}

// targetForDefense returns the undefended target (alias for readability).
func (l *Lab) targetForDefense() (*detector.DNN, error) { return l.Target() }
