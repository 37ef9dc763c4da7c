package main

import (
	"fmt"
	"path/filepath"

	"malevade/internal/dataset"
	"malevade/internal/detector"
	"malevade/internal/nn"
	"malevade/internal/rng"
	"malevade/internal/tensor"
)

// fixture is the seeded input every workload draws from: a generated corpus
// and the paper's full-width target detector (491-512-256-2,
// detector.ArchTarget) trained on it and saved to the model file the system
// under test loads. Building it is fixture work and runs before any clock.
type fixture struct {
	seed uint64
	// dir is the run's scratch directory inside the checkout.
	dir string
	// modelPath is the saved detector; net is that file loaded back, so
	// every reference answer uses exactly the weights the system serves.
	modelPath string
	net       *nn.Network
	// rows pools every corpus row (train, validation and test); malware
	// holds the malware rows the detector flags, the population campaigns
	// attack.
	rows    *tensor.Matrix
	malware *tensor.Matrix
	// rng drives every workload-specific choice after the corpus.
	rng *rng.RNG
}

// Fixture sizes. The corpus is Table I scaled down 150× (~700 rows) and the
// detector trains for 2 epochs: about a second on a 2-vCPU Xeon, and a
// model that separates the classes, so campaigns have detected malware to
// evade.
const (
	corpusScale = 150
	trainEpochs = 2
)

func newFixture(seed uint64, dir string) (*fixture, error) {
	corpus, err := dataset.Generate(dataset.TableIConfig(seed).Scaled(corpusScale))
	if err != nil {
		return nil, fmt.Errorf("generate corpus: %w", err)
	}
	det, err := detector.Train(corpus.Train, detector.TrainConfig{
		Arch:   detector.ArchTarget,
		Epochs: trainEpochs,
		Seed:   seed + 11,
	})
	if err != nil {
		return nil, fmt.Errorf("train detector: %w", err)
	}
	f := &fixture{seed: seed, dir: dir, modelPath: filepath.Join(dir, "model.gob"), rng: rng.New(seed + 101)}
	if err := det.Net.SaveFile(f.modelPath); err != nil {
		return nil, fmt.Errorf("save detector: %w", err)
	}
	if f.net, err = nn.LoadFile(f.modelPath); err != nil {
		return nil, fmt.Errorf("reload detector: %w", err)
	}
	all := corpus.Train.Concat(corpus.Val).Concat(corpus.Test)
	f.rows = all.X
	var mal [][]float64
	pred := f.net.PredictClass(all.X)
	for i, y := range all.Y {
		if y == dataset.LabelMalware && pred[i] == dataset.LabelMalware {
			mal = append(mal, all.X.Row(i))
		}
	}
	if len(mal) == 0 {
		return nil, fmt.Errorf("fixture detector flags no malware")
	}
	f.malware = tensor.FromRows(mal)
	return f, nil
}

// pick returns n rows drawn with replacement from m, as a fresh matrix.
func (f *fixture) pick(m *tensor.Matrix, n int) *tensor.Matrix {
	x := tensor.New(n, m.Cols)
	for i := 0; i < n; i++ {
		copy(x.Row(i), m.Row(f.rng.Intn(m.Rows)))
	}
	return x
}

// rowSlices copies a matrix into the [][]float64 shape wire specs carry.
func rowSlices(x *tensor.Matrix) [][]float64 {
	out := make([][]float64, x.Rows)
	for i := range out {
		out[i] = append([]float64(nil), x.Row(i)...)
	}
	return out
}
