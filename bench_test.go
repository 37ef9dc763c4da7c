package malevade_test

// The benchmark harness: one testing.B benchmark per table and figure of
// the paper (regenerating the artifact against a pre-warmed Small-profile
// lab), plus the ablation benches DESIGN.md §4 calls out. Detection rates
// and transfer rates are attached to the benchmark output via
// b.ReportMetric, so `go test -bench=.` doubles as a results summary.
//
// The shared lab is warmed once per process; per-iteration cost is the
// experiment driver itself (attack sweeps, defense training), not corpus
// generation or base-model training.

import (
	"context"
	"io"
	"runtime"
	"sync"
	"testing"

	"malevade"
	"malevade/internal/attack"
	"malevade/internal/blackbox"
	"malevade/internal/defense"
	"malevade/internal/detector"
	"malevade/internal/experiments"
	"malevade/internal/tensor"
)

var (
	benchLabOnce sync.Once
	benchLab     *experiments.Lab
)

// lab returns the shared, pre-warmed Small-profile lab.
func lab(b *testing.B) *experiments.Lab {
	b.Helper()
	benchLabOnce.Do(func() {
		benchLab = experiments.NewLab(experiments.Small)
		// Warm every cached artifact so benchmarks measure the
		// experiment, not lab construction.
		if _, err := benchLab.Target(); err != nil {
			panic(err)
		}
		if _, err := benchLab.Substitute(); err != nil {
			panic(err)
		}
		if _, err := benchLab.BinarySubstitute(); err != nil {
			panic(err)
		}
		if _, err := benchLab.GreyAdvExamples(); err != nil {
			panic(err)
		}
	})
	return benchLab
}

// benchExperiment reruns one registered experiment per iteration.
func benchExperiment(b *testing.B, id string) {
	l := lab(b)
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(l, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// --- One benchmark per paper artifact -----------------------------------

func BenchmarkTableIDataset(b *testing.B)             { benchExperiment(b, "table1") }
func BenchmarkTableIILogFormat(b *testing.B)          { benchExperiment(b, "table2") }
func BenchmarkTableIIIVocab(b *testing.B)             { benchExperiment(b, "table3") }
func BenchmarkTableIVSubstitute(b *testing.B)         { benchExperiment(b, "table4") }
func BenchmarkTableVAdvTrainingSet(b *testing.B)      { benchExperiment(b, "table5") }
func BenchmarkFigure1AdversarialExample(b *testing.B) { benchExperiment(b, "fig1") }
func BenchmarkFigure2BlackBoxFramework(b *testing.B)  { benchExperiment(b, "fig2") }
func BenchmarkFigure3aWhiteBoxGamma(b *testing.B)     { benchExperiment(b, "fig3a") }
func BenchmarkFigure3bWhiteBoxTheta(b *testing.B)     { benchExperiment(b, "fig3b") }
func BenchmarkFigure4aGreyBoxGamma(b *testing.B)      { benchExperiment(b, "fig4a") }
func BenchmarkFigure4bGreyBoxTheta(b *testing.B)      { benchExperiment(b, "fig4b") }
func BenchmarkFigure4cGreyBoxBinary(b *testing.B)     { benchExperiment(b, "fig4c") }
func BenchmarkFigure5L2Distances(b *testing.B)        { benchExperiment(b, "fig5") }
func BenchmarkLiveGreyBox(b *testing.B)               { benchExperiment(b, "live") }

// BenchmarkTableVIDefenses trains all four defenses per iteration — the
// heaviest artifact; detection metrics are reported alongside timing.
func BenchmarkTableVIDefenses(b *testing.B) {
	l := lab(b)
	b.ResetTimer()
	var rows []experiments.DefenseRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.DefenseResults(l)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		switch r.Name {
		case "No Defense":
			b.ReportMetric(r.AdvRate, "advdet-none")
		case "AdvTraining":
			b.ReportMetric(r.AdvRate, "advdet-advtrain")
		}
	}
}

// --- Scoring-engine benchmarks -------------------------------------------

// BenchmarkSerialScore is the pre-engine baseline: one row per forward
// pass, exactly how the oracle queries and per-sample evasion checks
// scored before internal/serve existed. Compare rows/s against
// BenchmarkParallelScore.
func BenchmarkSerialScore(b *testing.B) {
	l := lab(b)
	target, err := l.Target()
	if err != nil {
		b.Fatal(err)
	}
	mal, err := l.TestMalware()
	if err != nil {
		b.Fatal(err)
	}
	cols := mal.X.Cols
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < mal.X.Rows; r++ {
			row := tensor.FromSlice(1, cols, mal.X.Row(r))
			_ = target.MalwareProb(row)
		}
	}
	b.ReportMetric(float64(b.N*mal.X.Rows)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkParallelScore drives the same workload through the scoring
// engine at GOMAXPROCS=4 with 4 client goroutines, each scoring its own
// quarter of the rows in one call. The scorer is built after GOMAXPROCS is
// raised, so it has 4 slots and all four calls run at once. The workload
// is compute-bound (the matmul runs near peak even one row at a time), so
// the ≥2× rows/s target over BenchmarkSerialScore comes from true
// parallelism: with GOMAXPROCS=4 backed by ≥4 physical cores the four
// callers score disjoint chunks simultaneously (~4× scaling; no shared
// mutable state). On a single physical core the two benchmarks tie — that
// equality is itself the zero-overhead check for the engine's slot gate.
func BenchmarkParallelScore(b *testing.B) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	l := lab(b)
	target, err := l.Target()
	if err != nil {
		b.Fatal(err)
	}
	mal, err := l.TestMalware()
	if err != nil {
		b.Fatal(err)
	}
	sc := malevade.NewScorer(target, malevade.ScorerOptions{})
	defer sc.Close()

	const clients = 4
	rows, cols := mal.X.Rows, mal.X.Cols
	per := (rows + clients - 1) / clients
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			lo := c * per
			hi := lo + per
			if hi > rows {
				hi = rows
			}
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				x := tensor.FromSlice(hi-lo, cols, mal.X.Data[lo*cols:hi*cols])
				_ = sc.MalwareProb(x)
			}(lo, hi)
		}
		wg.Wait()
	}
	b.ReportMetric(float64(b.N*rows)/b.Elapsed().Seconds(), "rows/s")
}

// --- Attack-kernel micro benchmarks --------------------------------------

func BenchmarkJSMAWhiteBoxOperatingPoint(b *testing.B) {
	l := lab(b)
	target, err := l.Target()
	if err != nil {
		b.Fatal(err)
	}
	mal, err := l.TestMalware()
	if err != nil {
		b.Fatal(err)
	}
	j := &attack.JSMA{Model: target.Net, Theta: 0.1, Gamma: 0.025}
	b.ResetTimer()
	var det float64
	for i := 0; i < b.N; i++ {
		det = 1 - attack.Summarize(j.Run(mal.X)).EvasionRate
	}
	b.ReportMetric(det, "detection")
	b.ReportMetric(float64(mal.Len()), "samples")
}

func BenchmarkRandomAddControl(b *testing.B) {
	l := lab(b)
	target, err := l.Target()
	if err != nil {
		b.Fatal(err)
	}
	mal, err := l.TestMalware()
	if err != nil {
		b.Fatal(err)
	}
	r := &attack.RandomAdd{Model: target.Net, Theta: 0.1, Gamma: 0.025, Seed: 7}
	b.ResetTimer()
	var det float64
	for i := 0; i < b.N; i++ {
		det = 1 - attack.Summarize(r.Run(mal.X)).EvasionRate
	}
	b.ReportMetric(det, "detection")
}

func BenchmarkFGSMComparison(b *testing.B) {
	l := lab(b)
	target, err := l.Target()
	if err != nil {
		b.Fatal(err)
	}
	mal, err := l.TestMalware()
	if err != nil {
		b.Fatal(err)
	}
	f := &attack.FGSM{Model: target.Net, Theta: 0.1}
	b.ResetTimer()
	var det float64
	for i := 0; i < b.N; i++ {
		det = 1 - attack.Summarize(f.Run(mal.X)).EvasionRate
	}
	b.ReportMetric(det, "detection")
}

// --- Ablations (DESIGN.md §4) --------------------------------------------

// BenchmarkAblationAddOnly compares the paper's functionality-preserving
// add-only JSMA against the unconstrained variant that may also remove API
// calls. Removal power lowers detection further — quantifying what the
// attacker gives up to keep the malware functional.
func BenchmarkAblationAddOnly(b *testing.B) {
	l := lab(b)
	target, err := l.Target()
	if err != nil {
		b.Fatal(err)
	}
	mal, err := l.TestMalware()
	if err != nil {
		b.Fatal(err)
	}
	addOnly := &attack.JSMA{Model: target.Net, Theta: 0.1, Gamma: 0.025}
	free := &attack.JSMA{Model: target.Net, Theta: 0.1, Gamma: 0.025, AllowRemoval: true}
	b.ResetTimer()
	var detAdd, detFree float64
	for i := 0; i < b.N; i++ {
		detAdd = 1 - attack.Summarize(addOnly.Run(mal.X)).EvasionRate
		detFree = 1 - attack.Summarize(free.Run(mal.X)).EvasionRate
	}
	b.ReportMetric(detAdd, "det-addonly")
	b.ReportMetric(detFree, "det-removal")
}

// BenchmarkAblationSaliencyRule compares revisit (CleverHans-style
// iteration budget) against single-touch-per-feature selection.
func BenchmarkAblationSaliencyRule(b *testing.B) {
	l := lab(b)
	target, err := l.Target()
	if err != nil {
		b.Fatal(err)
	}
	mal, err := l.TestMalware()
	if err != nil {
		b.Fatal(err)
	}
	revisit := &attack.JSMA{Model: target.Net, Theta: 0.1, Gamma: 0.025}
	single := &attack.JSMA{Model: target.Net, Theta: 0.1, Gamma: 0.025, NoRevisit: true}
	b.ResetTimer()
	var detRe, detNo float64
	for i := 0; i < b.N; i++ {
		detRe = 1 - attack.Summarize(revisit.Run(mal.X)).EvasionRate
		detNo = 1 - attack.Summarize(single.Run(mal.X)).EvasionRate
	}
	b.ReportMetric(detRe, "det-revisit")
	b.ReportMetric(detNo, "det-norevisit")
}

// BenchmarkAblationFeatureTransform quantifies Figure 4(c)'s lesson: the
// same grey-box attack through normalized-count features vs through binary
// features replayed in count space.
func BenchmarkAblationFeatureTransform(b *testing.B) {
	benchExperiment(b, "fig4c")
}

// BenchmarkAblationSubstituteCapacity measures how substitute width affects
// transfer: a half-width and a double-width substitute attack the same
// target.
func BenchmarkAblationSubstituteCapacity(b *testing.B) {
	l := lab(b)
	target, err := l.Target()
	if err != nil {
		b.Fatal(err)
	}
	ac, err := l.AttackerCorpus()
	if err != nil {
		b.Fatal(err)
	}
	mal, err := l.TestMalware()
	if err != nil {
		b.Fatal(err)
	}
	widths := []float64{0.03, 0.12}
	transfers := make([]float64, len(widths))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for wi, ws := range widths {
			sub, err := detector.Train(ac.Train, detector.TrainConfig{
				Arch:       detector.ArchSubstitute,
				WidthScale: ws,
				Epochs:     l.Profile.SubstituteEpochs,
				BatchSize:  l.Profile.BatchSize,
				Seed:       l.Profile.Seed + 61 + uint64(wi),
			})
			if err != nil {
				b.Fatal(err)
			}
			j := &attack.JSMA{Model: sub.Net, Theta: 0.1, Gamma: 0.03}
			adv := attack.AdvMatrix(j.Run(mal.X))
			transfers[wi] = 1 - detector.DetectionRate(target, adv)
		}
	}
	b.ReportMetric(transfers[0], "transfer-narrow")
	b.ReportMetric(transfers[1], "transfer-wide")
}

// BenchmarkAblationPCAK sweeps the dimensionality-reduction defense's k
// around the paper's 19.
func BenchmarkAblationPCAK(b *testing.B) {
	l := lab(b)
	c, err := l.Corpus()
	if err != nil {
		b.Fatal(err)
	}
	adv, err := l.GreyAdvExamples()
	if err != nil {
		b.Fatal(err)
	}
	ks := []int{5, 19, 60}
	rates := make([]float64, len(ks))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for ki, k := range ks {
			dr, err := defense.NewDimReduction(c.Train, defense.DimReductionConfig{
				K: k,
				Train: detector.TrainConfig{
					Arch:       detector.ArchTarget,
					WidthScale: l.Profile.TargetWidthScale,
					Epochs:     l.Profile.TargetEpochs,
					BatchSize:  l.Profile.BatchSize,
					Seed:       l.Profile.Seed + 67,
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			rates[ki] = detector.DetectionRate(dr, adv)
		}
	}
	b.ReportMetric(rates[0], "advdet-k5")
	b.ReportMetric(rates[1], "advdet-k19")
	b.ReportMetric(rates[2], "advdet-k60")
}

// BenchmarkAblationDistillT sweeps the distillation temperature around the
// paper's 50.
func BenchmarkAblationDistillT(b *testing.B) {
	l := lab(b)
	c, err := l.Corpus()
	if err != nil {
		b.Fatal(err)
	}
	adv, err := l.GreyAdvExamples()
	if err != nil {
		b.Fatal(err)
	}
	temps := []float64{5, 50}
	rates := make([]float64, len(temps))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for ti, temp := range temps {
			st, err := defense.Distill(c.Train, defense.DistillConfig{
				Temperature: temp,
				Arch:        detector.ArchTarget,
				WidthScale:  l.Profile.TargetWidthScale,
				Epochs:      l.Profile.TargetEpochs * 5 / 2,
				BatchSize:   l.Profile.BatchSize,
				Seed:        l.Profile.Seed + 71,
			})
			if err != nil {
				b.Fatal(err)
			}
			rates[ti] = detector.DetectionRate(st, adv)
		}
	}
	b.ReportMetric(rates[0], "advdet-T5")
	b.ReportMetric(rates[1], "advdet-T50")
}

// BenchmarkAblationJacobianAug sweeps the black-box augmentation step λ.
func BenchmarkAblationJacobianAug(b *testing.B) {
	l := lab(b)
	target, err := l.Target()
	if err != nil {
		b.Fatal(err)
	}
	ac, err := l.AttackerCorpus()
	if err != nil {
		b.Fatal(err)
	}
	mal, err := l.TestMalware()
	if err != nil {
		b.Fatal(err)
	}
	lambdas := []float64{0.05, 0.2}
	agreements := make([]float64, len(lambdas))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for li, lambda := range lambdas {
			oracle := blackbox.NewDetectorOracle(target)
			res, err := blackbox.TrainSubstitute(context.Background(), oracle, blackbox.SeedSet(ac.Val, 8, 1),
				blackbox.SubstituteConfig{
					Arch:           detector.ArchTarget,
					WidthScale:     0.05,
					Rounds:         3,
					Lambda:         lambda,
					EpochsPerRound: 8,
					Seed:           l.Profile.Seed + 73,
				})
			if err != nil {
				b.Fatal(err)
			}
			agreements[li] = blackbox.AgreementWithTarget(res.Model, target, mal.X)
		}
	}
	b.ReportMetric(agreements[0], "agree-l0.05")
	b.ReportMetric(agreements[1], "agree-l0.2")
}
