package serve

import (
	"fmt"

	"malevade/internal/dataset"
	"malevade/internal/nn"
	"malevade/internal/tensor"
)

// Precision names for the scoring paths a Scorer can run. Float64 is the
// accuracy reference and the only path the training/attack code ever
// uses; Float32 is the binary-framing hot path (vector kernels, drift
// bounded by internal/nn's parity tests).
const (
	PrecisionFloat64 = "float64"
	PrecisionFloat32 = nn.PrecisionF32
)

// ValidPrecision reports whether p names a scoring precision.
func ValidPrecision(p string) bool {
	return p == PrecisionFloat64 || p == PrecisionFloat32
}

// plan returns the compiled float32 plan, compiling it on first use.
func (s *Scorer) plan(precision string) (*nn.Plan32, error) {
	if precision != PrecisionFloat32 {
		return nil, fmt.Errorf("serve: no reduced-precision plan for %q", precision)
	}
	s.planOnce.Do(func() { s.plan32, s.planErr = s.net.CompileF32() })
	return s.plan32, s.planErr
}

// EnsurePlan compiles (and caches) the plan for the given precision, so
// servers can fail at startup rather than on the first request.
// PrecisionFloat64 needs no plan and always succeeds.
func (s *Scorer) EnsurePlan(precision string) error {
	if precision == PrecisionFloat64 {
		return nil
	}
	if !ValidPrecision(precision) {
		return fmt.Errorf("serve: unknown precision %q", precision)
	}
	_, err := s.plan(precision)
	return err
}

// Logits32 scores a float32 batch through the compiled plan for
// PrecisionFloat32 and returns fresh float32 logits. Like Logits, it runs
// one forward pass on the caller's goroutine behind the same slots, and
// counts it in Stats. Safe for concurrent callers; panics if the scorer is
// closed or the input width is wrong.
func (s *Scorer) Logits32(x *tensor.Matrix32, precision string) (*tensor.Matrix32, error) {
	if x.Cols != s.net.InDim() {
		panic(fmt.Sprintf("serve: input width %d, want %d", x.Cols, s.net.InDim()))
	}
	p, err := s.plan(precision)
	if err != nil {
		return nil, err
	}
	if x.Rows == 0 {
		return tensor.New32(0, s.net.OutDim()), nil
	}
	s.enter(nil)
	defer s.leave(x.Rows)
	return p.Logits(x), nil
}

// Verdicts32 is the reduced-precision analogue of the server's render
// path: it scores the batch at the given precision and returns, per row,
// the malware probability under the scorer's softmax temperature and the
// argmax class.
func (s *Scorer) Verdicts32(x *tensor.Matrix32, precision string) (probs []float64, classes []int, err error) {
	logits, err := s.Logits32(x, precision)
	if err != nil {
		return nil, nil, err
	}
	probs = make([]float64, logits.Rows)
	classes = make([]int, logits.Rows)
	rowBuf := make([]float64, logits.Cols)
	smBuf := make([]float64, logits.Cols)
	for i := 0; i < logits.Rows; i++ {
		for j, v := range logits.Row(i) {
			rowBuf[j] = float64(v)
		}
		nn.SoftmaxRow(rowBuf, smBuf, s.temp)
		probs[i] = smBuf[dataset.LabelMalware]
		classes[i] = logits.RowArgmax(i)
	}
	return probs, classes, nil
}
