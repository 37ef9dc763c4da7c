// Package experiments wires the substrates into the paper's evaluation: one
// driver per table and figure, parameterized by a scale profile, sharing
// trained models through a Lab so a full reproduction run trains each model
// once.
package experiments

import (
	"fmt"
	"io"
	"sync"

	"malevade/internal/attack"
	"malevade/internal/dataset"
	"malevade/internal/detector"
	"malevade/internal/tensor"
)

// Profile scales the experiments. Structure never changes with scale — only
// dataset sizes, hidden widths, epochs and the number of attacked samples.
type Profile struct {
	// Name identifies the profile in reports.
	Name string
	// ScaleDivisor divides the Table I split sizes.
	ScaleDivisor float64
	// TargetWidthScale / TargetEpochs size the simulated proprietary
	// 4-layer target.
	TargetWidthScale float64
	TargetEpochs     int
	// SubstituteWidthScale / SubstituteEpochs size the Table IV
	// substitute.
	SubstituteWidthScale float64
	SubstituteEpochs     int
	// BatchSize for all training runs (paper: 256).
	BatchSize int
	// AttackCap bounds how many test-malware samples each attack sweep
	// perturbs (0 = all).
	AttackCap int
	// Seed drives the whole profile deterministically.
	Seed uint64
}

// The three standard profiles.
var (
	// Small is the CI/bench profile: seconds per experiment on one core.
	Small = Profile{
		Name:                 "small",
		ScaleDivisor:         150,
		TargetWidthScale:     0.1,
		TargetEpochs:         15,
		SubstituteWidthScale: 0.06,
		SubstituteEpochs:     15,
		BatchSize:            64,
		AttackCap:            200,
		Seed:                 3,
	}
	// Medium is the default reproduction profile (cmd/malevade repro).
	Medium = Profile{
		Name:                 "medium",
		ScaleDivisor:         20,
		TargetWidthScale:     0.25,
		TargetEpochs:         25,
		SubstituteWidthScale: 0.1,
		SubstituteEpochs:     20,
		BatchSize:            128,
		AttackCap:            1500,
		Seed:                 3,
	}
	// PaperScale uses Table I sizes and Table IV widths with the paper's
	// 1000 epochs; provided for completeness, impractical on one core.
	PaperScale = Profile{
		Name:                 "paper",
		ScaleDivisor:         1,
		TargetWidthScale:     1,
		TargetEpochs:         1000,
		SubstituteWidthScale: 1,
		SubstituteEpochs:     1000,
		BatchSize:            256,
		AttackCap:            0,
		Seed:                 3,
	}
)

// ProfileByName resolves "small", "medium" or "paper".
func ProfileByName(name string) (Profile, error) {
	switch name {
	case "", "small":
		return Small, nil
	case "medium":
		return Medium, nil
	case "paper":
		return PaperScale, nil
	default:
		return Profile{}, fmt.Errorf("experiments: unknown profile %q (small|medium|paper)", name)
	}
}

// Lab owns the corpora and trained models an experiment run shares. All
// getters are lazy, memoized and safe for concurrent use (two goroutines
// asking for the same model get one training run).
type Lab struct {
	Profile Profile
	// Log receives training progress when non-nil.
	Log io.Writer
	// Serial runs every sweep's grid points one after another instead of
	// fanning them out across goroutines. The determinism tests compare
	// the fanned-out artifacts against this path byte for byte.
	Serial bool

	mu             sync.Mutex
	corpus         *dataset.Corpus
	attackerCorpus *dataset.Corpus
	target         *detector.DNN
	substitute     *detector.DNN
	binSubstitute  *detector.DNN
	testMalware    *dataset.Dataset
	advGrey02      *tensor.Matrix // grey-box advEx (θ=0.1, γ=0.02) on test malware
}

// NewLab creates a lab for the profile.
func NewLab(p Profile) *Lab { return &Lab{Profile: p} }

func (l *Lab) logf(format string, args ...any) {
	if l.Log != nil {
		fmt.Fprintf(l.Log, format, args...)
	}
}

// Corpus returns the defender's Table I corpus.
func (l *Lab) Corpus() (*dataset.Corpus, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.corpusLocked()
}

func (l *Lab) corpusLocked() (*dataset.Corpus, error) {
	if l.corpus != nil {
		return l.corpus, nil
	}
	l.logf("generating defender corpus (profile %s)...\n", l.Profile.Name)
	c, err := dataset.Generate(dataset.TableIConfig(l.Profile.Seed).Scaled(l.Profile.ScaleDivisor))
	if err != nil {
		return nil, fmt.Errorf("experiments: generate corpus: %w", err)
	}
	l.corpus = c
	return c, nil
}

// AttackerCorpus returns the attacker's own data — drawn from the same
// world but a different collection (different seed), per the paper's
// grey-box setting where "the attacker's ... training data are different
// from the target['s]".
func (l *Lab) AttackerCorpus() (*dataset.Corpus, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.attackerCorpus != nil {
		return l.attackerCorpus, nil
	}
	l.logf("generating attacker corpus...\n")
	// Same family universe (FamilySeed) as the defender, different
	// samples (Seed): the grey-box attacker collects from the same
	// ecosystem but owns none of the defender's data.
	cfg := dataset.TableIConfig(l.Profile.Seed + 7919).Scaled(l.Profile.ScaleDivisor)
	cfg.FamilySeed = l.Profile.Seed
	c, err := dataset.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: generate attacker corpus: %w", err)
	}
	l.attackerCorpus = c
	return c, nil
}

// Target returns the trained simulated-proprietary target model.
func (l *Lab) Target() (*detector.DNN, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.targetLocked()
}

func (l *Lab) targetLocked() (*detector.DNN, error) {
	if l.target != nil {
		return l.target, nil
	}
	c, err := l.corpusLocked()
	if err != nil {
		return nil, err
	}
	l.logf("training target model (%d epochs)...\n", l.Profile.TargetEpochs)
	d, err := detector.Train(c.Train, detector.TrainConfig{
		Arch:       detector.ArchTarget,
		WidthScale: l.Profile.TargetWidthScale,
		Epochs:     l.Profile.TargetEpochs,
		BatchSize:  l.Profile.BatchSize,
		Seed:       l.Profile.Seed + 11,
		Log:        l.Log,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: train target: %w", err)
	}
	l.target = d
	return d, nil
}

// Substitute returns the Table IV substitute trained on the attacker's
// corpus with the paper's hyper-parameters (Adam lr=0.001, batch 256 scaled
// by profile).
func (l *Lab) Substitute() (*detector.DNN, error) {
	ac, err := l.AttackerCorpus()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.substitute != nil {
		return l.substitute, nil
	}
	l.logf("training substitute model (%d epochs)...\n", l.Profile.SubstituteEpochs)
	d, err := detector.Train(ac.Train, detector.TrainConfig{
		Arch:       detector.ArchSubstitute,
		WidthScale: l.Profile.SubstituteWidthScale,
		Epochs:     l.Profile.SubstituteEpochs,
		BatchSize:  l.Profile.BatchSize,
		Seed:       l.Profile.Seed + 13,
		Log:        l.Log,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: train substitute: %w", err)
	}
	l.substitute = d
	return d, nil
}

// BinarySubstitute returns the grey-box experiment 2 substitute: trained on
// binary features of the attacker corpus ("when the API appears, the
// feature value equals one").
func (l *Lab) BinarySubstitute() (*detector.DNN, error) {
	ac, err := l.AttackerCorpus()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.binSubstitute != nil {
		return l.binSubstitute, nil
	}
	l.logf("training binary-feature substitute...\n")
	d, err := detector.Train(ac.Train.BinaryView(), detector.TrainConfig{
		Arch:       detector.ArchSubstitute,
		WidthScale: l.Profile.SubstituteWidthScale,
		Epochs:     l.Profile.SubstituteEpochs,
		BatchSize:  l.Profile.BatchSize,
		Seed:       l.Profile.Seed + 17,
		Log:        l.Log,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: train binary substitute: %w", err)
	}
	l.binSubstitute = d
	return d, nil
}

// TestMalware returns the attacked population: the test split's malware,
// capped at Profile.AttackCap rows (the paper attacks all 28,874).
func (l *Lab) TestMalware() (*dataset.Dataset, error) {
	c, err := l.Corpus()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.testMalware != nil {
		return l.testMalware, nil
	}
	l.testMalware = capMalware(c.Test, l.Profile.AttackCap)
	return l.testMalware, nil
}

// capMalware extracts a test split's malware, keeping the first cap rows
// (0 = all) — the one definition of "the attacked population" that
// Lab.TestMalware and MalwarePopulation must share so remote campaigns and
// in-process experiments attack identical rows.
func capMalware(test *dataset.Dataset, cap int) *dataset.Dataset {
	mal := test.FilterLabel(dataset.LabelMalware)
	if cap > 0 && mal.Len() > cap {
		idx := make([]int, cap)
		for i := range idx {
			idx[i] = i
		}
		mal = mal.Subset(idx)
	}
	return mal
}

// MalwarePopulation regenerates a profile's attacked population —
// bit-identical to what Lab.TestMalware would hand the sweep drivers —
// without training any model: the deterministic Table I corpus at the
// profile's scale, filtered to test malware and capped at AttackCap. The
// campaign engine uses it so a campaign parameterized only by a profile name
// attacks exactly the rows the in-process Lab attacks.
func MalwarePopulation(p Profile) (*dataset.Dataset, error) {
	c, err := dataset.Generate(dataset.TableIConfig(p.Seed).Scaled(p.ScaleDivisor))
	if err != nil {
		return nil, fmt.Errorf("experiments: generate corpus: %w", err)
	}
	return capMalware(c.Test, p.AttackCap), nil
}

// GreyAdvExamples returns (cached) grey-box adversarial examples at the
// paper's defense operating point θ=0.1, γ=0.02, crafted on the substitute
// from the capped test malware.
func (l *Lab) GreyAdvExamples() (*tensor.Matrix, error) {
	sub, err := l.Substitute()
	if err != nil {
		return nil, err
	}
	mal, err := l.TestMalware()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.advGrey02 != nil {
		return l.advGrey02, nil
	}
	l.logf("crafting grey-box advEx (theta=0.1, gamma=0.02)...\n")
	j := &attack.JSMA{Model: sub.Net, Theta: 0.1, Gamma: 0.02}
	l.advGrey02 = attack.AdvMatrix(j.Run(mal.X))
	return l.advGrey02, nil
}
