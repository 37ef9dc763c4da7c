// Package serve scores one frozen network for any number of concurrent
// callers. A Scorer runs every call's forward pass on the caller's own
// goroutine once the call holds one of GOMAXPROCS slots; callers beyond
// that wait for a slot in arrival order. With no more forwards running
// than there are Ps, a burst of callers queues in FIFO order instead of
// time-sharing the CPUs, where each call would be stretched by the
// scheduler's 10 ms preemption slice.
//
// The paper reproduction's hot paths — attack evasion checks, black-box
// oracle queries, the daemon's score and label handlers — are all
// forward-only scoring of a frozen model, and the Scorer is what they
// share.
//
// Determinism: each logits row depends only on its own input row, so which
// callers run at once cannot change the numbers — scoring through a Scorer
// is bit-identical to serial net.Forward(x, false). Tests and the
// experiments package rely on this.
package serve

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"malevade/internal/dataset"
	"malevade/internal/detector"
	"malevade/internal/nn"
	"malevade/internal/obs"
	"malevade/internal/tensor"
)

// BatchRowsBuckets are the bounds of the rows-per-forward-pass histogram:
// powers of two from one row to 512.
var BatchRowsBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}

// Options configures a Scorer. The zero value is ready to use.
type Options struct {
	// Obs, when set, receives the rows-per-forward-pass histogram
	// (malevade_serve_batch_rows), shared by every scorer built against
	// the same registry. Waiting and in-flight counts are accessors
	// instead: the serving layer sums them across live engines into
	// gauges.
	Obs *obs.Registry
}

// Scorer scores one frozen network for concurrent callers. Every scoring
// method runs its forward pass on the caller's goroutine while holding one
// of GOMAXPROCS slots, and callers beyond that wait in arrival order. The
// network's parameters must not be mutated (trained) while the scorer is
// live. A Scorer implements detector.Detector, so it drops in anywhere a
// detector is scored.
type Scorer struct {
	net  *nn.Network
	temp float64

	// slots holds one token per running forward pass. A send blocks while
	// every slot is taken, and Go hands a freed slot to the sender that
	// has waited longest.
	slots    chan struct{}
	closed   atomic.Bool
	waiting  atomic.Int64 // callers blocked on a slot
	inflight atomic.Int64 // callers waiting for or holding a slot
	batches  atomic.Int64 // forward passes run
	rows     atomic.Int64 // rows scored

	batchRows *obs.Histogram // nil without Options.Obs

	// The float32 plan compiles once, on first use (see serve32.go).
	planOnce sync.Once
	plan32   *nn.Plan32
	planErr  error
}

var _ detector.Detector = (*Scorer)(nil)

// New returns a scorer over net with the given softmax temperature for the
// probability head (0 means 1). It starts no goroutines.
func New(net *nn.Network, temperature float64, opts Options) *Scorer {
	if temperature <= 0 {
		temperature = 1
	}
	s := &Scorer{net: net, temp: temperature, slots: make(chan struct{}, runtime.GOMAXPROCS(0))}
	if opts.Obs != nil {
		s.batchRows = opts.Obs.Histogram("malevade_serve_batch_rows",
			"Rows scored by each forward pass.", BatchRowsBuckets)
	}
	return s
}

// enter takes a slot for one forward pass, waiting behind earlier callers
// while every slot is taken. It reports false, holding no slot, when done
// is closed before a slot is free; a nil done never fires. A done that is
// already closed takes no slot at all.
func (s *Scorer) enter(done <-chan struct{}) bool {
	if s.closed.Load() {
		panic("serve: Scorer used after Close")
	}
	select {
	case <-done:
		return false
	default:
	}
	s.inflight.Add(1)
	// A free slot is taken without counting the caller as waiting, so
	// QueueDepth counts only callers that block.
	select {
	case s.slots <- struct{}{}:
		return true
	default:
	}
	s.waiting.Add(1)
	select {
	case s.slots <- struct{}{}:
		s.waiting.Add(-1)
		return true
	case <-done:
		s.waiting.Add(-1)
		s.inflight.Add(-1)
		return false
	}
}

// leave frees the slot taken by enter and counts the forward pass that
// ran under it.
func (s *Scorer) leave(rows int) {
	<-s.slots
	s.inflight.Add(-1)
	s.batches.Add(1)
	s.rows.Add(int64(rows))
	if s.batchRows != nil {
		s.batchRows.Observe(float64(rows))
	}
}

// Logits scores every row of x in one forward pass and returns a fresh
// rows×OutDim logits matrix, bit-identical to net.Forward(x, false). It
// waits for a slot without a way out; callers that need cancellation use
// LogitsContext.
func (s *Scorer) Logits(x *tensor.Matrix) *tensor.Matrix {
	out, _ := s.logits(nil, x) // a nil done never cancels
	return out
}

// LogitsContext is Logits with cancellation: a context that ends before
// the call holds a slot returns ctx.Err() and runs no forward pass. A
// forward that has started runs to completion.
func (s *Scorer) LogitsContext(ctx context.Context, x *tensor.Matrix) (*tensor.Matrix, error) {
	out, ok := s.logits(ctx.Done(), x)
	if !ok {
		return nil, ctx.Err()
	}
	return out, nil
}

func (s *Scorer) logits(done <-chan struct{}, x *tensor.Matrix) (*tensor.Matrix, bool) {
	if x.Rows == 0 {
		return tensor.New(0, s.net.OutDim()), true
	}
	if x.Cols != s.net.InDim() {
		panic(fmt.Sprintf("serve: input width %d, want %d", x.Cols, s.net.InDim()))
	}
	if !s.enter(done) {
		return nil, false
	}
	defer s.leave(x.Rows)
	return s.net.Logits(x), true
}

// MalwareProb implements detector.Detector: P(class=1|x) per row at the
// scorer's temperature.
func (s *Scorer) MalwareProb(x *tensor.Matrix) []float64 {
	logits := s.Logits(x)
	out := make([]float64, logits.Rows)
	probs := make([]float64, logits.Cols)
	for i := range out {
		nn.SoftmaxRow(logits.Row(i), probs, s.temp)
		out[i] = probs[dataset.LabelMalware]
	}
	return out
}

// Predict implements detector.Detector: argmax class per row.
func (s *Scorer) Predict(x *tensor.Matrix) []int {
	logits := s.Logits(x)
	out := make([]int, logits.Rows)
	for i := range out {
		out[i] = logits.RowArgmax(i)
	}
	return out
}

// InDim implements detector.Detector.
func (s *Scorer) InDim() int { return s.net.InDim() }

// OutDim returns the logits width.
func (s *Scorer) OutDim() int { return s.net.OutDim() }

// Stats reports how many forward passes have run, at every precision,
// and how many rows they scored; rows/batches is the mean rows per pass.
func (s *Scorer) Stats() (batches, rows int64) {
	return s.batches.Load(), s.rows.Load()
}

// InFlight reports how many callers are waiting for a slot or running a
// forward pass. Zero on an idle scorer.
func (s *Scorer) InFlight() int64 { return s.inflight.Load() }

// QueueDepth reports how many callers are waiting for a slot, a direct
// saturation signal: a depth that stays above zero means callers arrive
// faster than the CPU scores them.
func (s *Scorer) QueueDepth() int { return int(s.waiting.Load()) }

// Close marks the scorer closed: scoring after Close panics. Calls already
// past the check finish normally. Idempotent.
func (s *Scorer) Close() { s.closed.Store(true) }
