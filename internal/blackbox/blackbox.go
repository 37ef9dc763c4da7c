// Package blackbox implements the paper's Figure 2 framework for grey-box
// and black-box attacks in a real-world setting: the attacker trains a
// substitute model — querying the target only for labels — crafts
// adversarial examples on the substitute, and deploys them against the
// target, relying on transferability.
//
// The substitute-training loop is the Jacobian-based dataset augmentation of
// Papernot et al. (ref [21] of the paper): starting from a small seed set,
// each round trains the substitute on oracle-labelled data and then expands
// the set along the substitute's Jacobian directions, tracing out the
// target's decision boundary with a bounded query budget.
package blackbox

import (
	"context"
	"fmt"
	"io"
	"sync/atomic"

	"malevade/internal/dataset"
	"malevade/internal/detector"
	"malevade/internal/nn"
	"malevade/internal/tensor"
)

// Oracle is the attacker's only view of the target system: a label for a
// feature vector. Implementations count queries; real-world oracles (an AV
// verdict API) are slow and rate-limited, which is why the framework tracks
// the budget explicitly.
type Oracle interface {
	// Label returns the target's class decision for one sample.
	Label(x []float64) int
	// Queries returns how many labels have been served.
	Queries() int64
}

// BatchOracle is an Oracle that can label a whole batch in one call — the
// fast path the substitute-training loop uses for its seed and augmentation
// sets instead of one forward pass per row.
type BatchOracle interface {
	Oracle
	// LabelBatch returns the target's class decision for every row of x,
	// counting one query per row.
	LabelBatch(x *tensor.Matrix) []int
}

// OracleError wraps a failure of the oracle itself (a transport or protocol
// error from a remote target, say) so it can cross the error-less Oracle
// interface as a panic and be recovered into TrainSubstitute's error return.
type OracleError struct{ Err error }

// Error implements error.
func (e *OracleError) Error() string { return e.Err.Error() }

// Unwrap exposes the transport error for errors.Is/As.
func (e *OracleError) Unwrap() error { return e.Err }

// ContextBatchOracle is the optional error-and-context-aware batch
// interface remote oracles implement (HTTPOracle does): a cancelled ctx
// aborts an in-flight wire call promptly with ctx.Err() instead of
// waiting the network out.
type ContextBatchOracle interface {
	Oracle
	// Labels returns the target's class decision for every row of x,
	// counting one query per row, honoring ctx.
	Labels(ctx context.Context, x *tensor.Matrix) ([]int, error)
}

// LabelAll labels every row of x, taking the batched fast path when the
// oracle supports it.
func LabelAll(o Oracle, x *tensor.Matrix) []int {
	if bo, ok := o.(BatchOracle); ok {
		return bo.LabelBatch(x)
	}
	out := make([]int, x.Rows)
	for i := range out {
		out[i] = o.Label(x.Row(i))
	}
	return out
}

// LabelAllContext labels every row of x honoring ctx. Context-aware
// oracles (the remote ones, where cancellation matters) get ctx plumbed
// into the wire call; in-process oracles keep their allocation-free path
// with only a cheap ctx poll before the batch.
func LabelAllContext(ctx context.Context, o Oracle, x *tensor.Matrix) ([]int, error) {
	if co, ok := o.(ContextBatchOracle); ok {
		return co.Labels(ctx, x)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return LabelAll(o, x), nil
}

// DetectorOracle adapts any Detector into a query-counting BatchOracle.
// Query counting is atomic, so the oracle is safe for concurrent callers
// whenever the wrapped Target is (detector.DNN and serve.Scorer both are).
type DetectorOracle struct {
	Target detector.Detector

	queries atomic.Int64
}

var _ BatchOracle = (*DetectorOracle)(nil)

// NewDetectorOracle wraps a target detector.
func NewDetectorOracle(target detector.Detector) *DetectorOracle {
	return &DetectorOracle{Target: target}
}

// Label implements Oracle.
func (o *DetectorOracle) Label(x []float64) int {
	o.queries.Add(1)
	m := tensor.FromSlice(1, len(x), x)
	return o.Target.Predict(m)[0]
}

// LabelBatch implements BatchOracle with a single batched forward pass.
func (o *DetectorOracle) LabelBatch(x *tensor.Matrix) []int {
	o.queries.Add(int64(x.Rows))
	return o.Target.Predict(x)
}

// Queries implements Oracle.
func (o *DetectorOracle) Queries() int64 { return o.queries.Load() }

// SubstituteConfig parameterizes the substitute-training loop.
type SubstituteConfig struct {
	// Arch is the substitute architecture (default Table IV's 5-layer).
	Arch detector.Arch
	// WidthScale shrinks hidden widths for fast profiles.
	WidthScale float64
	// Rounds is the number of Jacobian-augmentation rounds (default 4).
	Rounds int
	// Lambda is the augmentation step size (default 0.1).
	Lambda float64
	// EpochsPerRound trains the substitute this long each round
	// (default 10).
	EpochsPerRound int
	// BatchSize defaults to 64 (seed sets are small).
	BatchSize int
	// LearningRate defaults to 0.001.
	LearningRate float64
	// MaxQueries aborts augmentation when the oracle budget is exhausted
	// (0 = unlimited).
	MaxQueries int64
	// Seed drives initialization.
	Seed uint64
	// Log, when non-nil, receives one line per round.
	Log io.Writer
}

func (c *SubstituteConfig) setDefaults() {
	if c.Arch == 0 {
		c.Arch = detector.ArchSubstitute
	}
	if c.WidthScale == 0 {
		c.WidthScale = 1
	}
	if c.Rounds == 0 {
		c.Rounds = 4
	}
	if c.Lambda == 0 {
		c.Lambda = 0.1
	}
	if c.EpochsPerRound == 0 {
		c.EpochsPerRound = 10
	}
	if c.BatchSize == 0 {
		c.BatchSize = 64
	}
	if c.LearningRate == 0 {
		c.LearningRate = 0.001
	}
}

// SubstituteResult is the outcome of the substitute-training loop.
type SubstituteResult struct {
	// Model is the trained substitute.
	Model *detector.DNN
	// TrainingSetSize is the final augmented set size.
	TrainingSetSize int
	// QueriesUsed is the oracle budget consumed.
	QueriesUsed int64
	// RoundAgreement records, per round, the substitute's agreement with
	// the oracle labels of its own training set (a convergence signal).
	RoundAgreement []float64
}

// TrainSubstitute runs the Jacobian-augmentation loop: label the seed set
// via the oracle, train, expand each sample one λ·sign(Jacobian) step toward
// its oracle label's gradient, re-label, repeat.
//
// Oracle failures mid-loop (an *OracleError panic from a remote oracle like
// HTTPOracle) are returned as errors, so a network blip against a live
// target aborts the run cleanly instead of crashing the process.
//
// Cancelling ctx aborts the loop promptly — an in-flight wire query
// returns with ctx.Err(), and the loop re-checks ctx between training
// rounds and augmentation blocks.
func TrainSubstitute(ctx context.Context, oracle Oracle, seed *tensor.Matrix, cfg SubstituteConfig) (res *SubstituteResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			oe, ok := r.(*OracleError)
			if !ok {
				panic(r)
			}
			res, err = nil, fmt.Errorf("blackbox: oracle failed: %w", oe.Err)
		}
	}()
	cfg.setDefaults()
	if seed.Rows == 0 {
		return nil, fmt.Errorf("blackbox: empty seed set")
	}
	inDim := seed.Cols

	net, err := nn.NewMLP(nn.MLPConfig{
		Dims: cfg.Arch.Dims(inDim, cfg.WidthScale),
		Seed: cfg.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("blackbox: build substitute: %w", err)
	}

	x := seed.Clone()
	labels, err := LabelAllContext(ctx, oracle, x)
	if err != nil {
		return nil, fmt.Errorf("blackbox: oracle failed: %w", err)
	}
	res = &SubstituteResult{}

	for round := 0; round < cfg.Rounds; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := nn.Train(net, x, nn.OneHot(labels, 2), nn.TrainConfig{
			Epochs:    cfg.EpochsPerRound,
			BatchSize: cfg.BatchSize,
			Optimizer: nn.NewAdam(cfg.LearningRate),
			Seed:      cfg.Seed + uint64(round) + 1,
		}); err != nil {
			return nil, fmt.Errorf("blackbox: round %d: %w", round, err)
		}
		agreement := labelAgreement(net, x, labels)
		res.RoundAgreement = append(res.RoundAgreement, agreement)
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "round %d: set=%d agreement=%.3f queries=%d\n",
				round, x.Rows, agreement, oracle.Queries())
		}
		if round == cfg.Rounds-1 {
			break
		}
		if cfg.MaxQueries > 0 && oracle.Queries()+int64(x.Rows) > cfg.MaxQueries {
			break // budget would be exceeded by another augmentation
		}

		// Jacobian augmentation: x' = clamp(x + λ·sign(∂F_label/∂x)).
		// One ClassGradient per class covers the whole block (each row's
		// gradient is independent of the others); every row then steps
		// along its own label's gradient, and the oracle labels for the
		// whole augmented block are fetched in one batched query.
		grads := make([]*tensor.Matrix, net.OutDim())
		for c := range grads {
			grads[c], _ = net.ClassGradient(x, c, 1)
		}
		augmented := tensor.New(x.Rows*2, inDim)
		copy(augmented.Data[:len(x.Data)], x.Data)
		for i := 0; i < x.Rows; i++ {
			dst := augmented.Row(x.Rows + i)
			src := x.Row(i)
			jRow := grads[labels[i]].Row(i)
			for f := range dst {
				step := 0.0
				switch {
				case jRow[f] > 0:
					step = cfg.Lambda
				case jRow[f] < 0:
					step = -cfg.Lambda
				}
				v := src[f] + step
				if v < 0 {
					v = 0
				} else if v > 1 {
					v = 1
				}
				dst[f] = v
			}
		}
		fresh := tensor.FromSlice(x.Rows, inDim, augmented.Data[len(x.Data):])
		freshLabels, err := LabelAllContext(ctx, oracle, fresh)
		if err != nil {
			return nil, fmt.Errorf("blackbox: oracle failed: %w", err)
		}
		labels = append(labels, freshLabels...)
		x = augmented
	}
	res.Model = detector.NewDNN(net)
	res.TrainingSetSize = x.Rows
	res.QueriesUsed = oracle.Queries()
	return res, nil
}

func labelAgreement(net *nn.Network, x *tensor.Matrix, labels []int) float64 {
	if x.Rows == 0 {
		return 0
	}
	pred := net.PredictClass(x)
	ok := 0
	for i, p := range pred {
		if p == labels[i] {
			ok++
		}
	}
	return float64(ok) / float64(len(labels))
}

// AgreementWithTarget measures substitute/target label agreement on a held
// set — the transferability precondition.
func AgreementWithTarget(sub detector.Detector, target detector.Detector, x *tensor.Matrix) float64 {
	if x.Rows == 0 {
		return 0
	}
	a := sub.Predict(x)
	b := target.Predict(x)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	return float64(same) / float64(len(a))
}

// SeedSet draws a small attacker-owned sample set: the handful of malware
// and clean files the attacker has on hand (the framework's "attacker data"
// box in Figure 2).
func SeedSet(d *dataset.Dataset, perClass int, seed uint64) *tensor.Matrix {
	clean := d.FilterLabel(dataset.LabelClean)
	mal := d.FilterLabel(dataset.LabelMalware)
	rows := make([][]float64, 0, perClass*2)
	for i := 0; i < perClass && i < clean.Len(); i++ {
		rows = append(rows, clean.X.Row(i))
	}
	for i := 0; i < perClass && i < mal.Len(); i++ {
		rows = append(rows, mal.X.Row(i))
	}
	_ = seed // reserved for future subsampling strategies
	return tensor.FromRows(rows)
}
