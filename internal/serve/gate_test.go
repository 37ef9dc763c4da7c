package serve

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"malevade/internal/nn"
	"malevade/internal/tensor"
)

// gateLayer is a two-wide identity layer that lets a test watch and steer
// forward passes: it counts them and their peak overlap, sends each pass's
// first input value on entered (when set), and holds the pass until
// release yields (when set).
type gateLayer struct {
	passes  atomic.Int64
	running atomic.Int64
	peak    atomic.Int64
	entered chan float64
	release chan struct{}
}

func (l *gateLayer) InferInto(dst, x *tensor.Matrix) {
	l.passes.Add(1)
	n := l.running.Add(1)
	for p := l.peak.Load(); n > p && !l.peak.CompareAndSwap(p, n); p = l.peak.Load() {
	}
	if l.entered != nil {
		l.entered <- x.Data[0]
	}
	if l.release != nil {
		<-l.release
	}
	l.running.Add(-1)
	copy(dst.Data, x.Data)
}

func (*gateLayer) Backward(dx, dy, _, _ *tensor.Matrix, _ bool) { copy(dx.Data, dy.Data) }
func (*gateLayer) Params() []*nn.Param                          { return nil }
func (*gateLayer) OutDim(inDim int) (int, error)                { return inDim, nil }

// newBlockingLayer returns a gateLayer that reports and holds every pass.
func newBlockingLayer() *gateLayer {
	return &gateLayer{entered: make(chan float64, 64), release: make(chan struct{})}
}

func gateScorer(t *testing.T, l *gateLayer) *Scorer {
	t.Helper()
	net, err := nn.NewNetwork(2, l)
	if err != nil {
		t.Fatal(err)
	}
	s := New(net, 1, Options{})
	t.Cleanup(s.Close)
	return s
}

// gateRow is a one-row input whose first value identifies the caller.
func gateRow(id float64) *tensor.Matrix { return tensor.FromSlice(1, 2, []float64{id, 0}) }

// waitFor polls cond until it holds, failing the test after five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// parkedInEnter counts goroutines parked in enter's select, which are
// queued on the slot channel.
func parkedInEnter() int {
	buf := make([]byte, 1<<20)
	n := 0
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, " [select") && strings.Contains(g, "serve.(*Scorer).enter(") {
			n++
		}
	}
	return n
}

// fillSlots starts one Logits caller per slot and returns once every one
// of them is inside its forward pass, holding its slot.
func fillSlots(t *testing.T, s *Scorer, l *gateLayer, wg *sync.WaitGroup) int {
	t.Helper()
	slots := runtime.GOMAXPROCS(0)
	for range slots {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Logits(gateRow(-1))
		}()
	}
	for range slots {
		<-l.entered
	}
	return slots
}

func checkIdle(t *testing.T, s *Scorer) {
	t.Helper()
	if q, f := s.QueueDepth(), s.InFlight(); q != 0 || f != 0 {
		t.Fatalf("quiescent scorer reports queue depth %d, in-flight %d; want 0, 0", q, f)
	}
}

// TestGateBoundsConcurrentForwards: with every slot held, further callers
// wait; QueueDepth counts them, InFlight counts them plus the running
// callers, and no more than GOMAXPROCS forwards ever overlap.
func TestGateBoundsConcurrentForwards(t *testing.T) {
	l := newBlockingLayer()
	s := gateScorer(t, l)
	var wg sync.WaitGroup
	slots := fillSlots(t, s, l, &wg)
	const extra = 3
	for range extra {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Logits(gateRow(1))
		}()
	}
	waitFor(t, "three blocked callers", func() bool { return s.QueueDepth() == extra })
	if got := s.InFlight(); got != int64(slots+extra) {
		t.Fatalf("InFlight %d with %d running and %d waiting", got, slots, extra)
	}
	if got := l.running.Load(); got != int64(slots) {
		t.Fatalf("%d forwards running, want %d (one per slot)", got, slots)
	}
	close(l.release)
	wg.Wait()
	if peak := l.peak.Load(); peak > int64(slots) {
		t.Fatalf("%d forwards overlapped, want at most %d", peak, slots)
	}
	if batches, rows := s.Stats(); batches != int64(slots+extra) || rows != int64(slots+extra) {
		t.Fatalf("Stats %d passes / %d rows, want %d / %d", batches, rows, slots+extra, slots+extra)
	}
	checkIdle(t, s)
}

// TestGateAdmitsInArrivalOrder: each freed slot goes to the caller that
// has waited longest.
func TestGateAdmitsInArrivalOrder(t *testing.T) {
	l := newBlockingLayer()
	s := gateScorer(t, l)
	var wg sync.WaitGroup
	fillSlots(t, s, l, &wg)
	const waiters = 5
	for i := 1; i <= waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Logits(gateRow(float64(i)))
		}()
		// QueueDepth counts a caller just before it parks on the slot
		// channel; wait for the park itself before the next caller comes.
		waitFor(t, "the next caller to queue", func() bool { return parkedInEnter() == i })
	}
	for i := 1; i <= waiters; i++ {
		l.release <- struct{}{} // one forward ends, one slot frees
		if got := <-l.entered; got != float64(i) {
			t.Fatalf("freed slot %d went to caller %g, want caller %d", i, got, i)
		}
	}
	close(l.release)
	wg.Wait()
	checkIdle(t, s)
}

// TestGateCancelWhileWaiting: a LogitsContext cancelled while it waits for
// a slot returns context.Canceled, leaves both counts and runs no forward.
func TestGateCancelWhileWaiting(t *testing.T) {
	l := newBlockingLayer()
	s := gateScorer(t, l)
	var wg sync.WaitGroup
	slots := fillSlots(t, s, l, &wg)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := s.LogitsContext(ctx, gateRow(7))
		errc <- err
	}()
	waitFor(t, "the cancellable caller to queue", func() bool { return s.QueueDepth() == 1 })
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
	}
	if q, f := s.QueueDepth(), s.InFlight(); q != 0 || f != int64(slots) {
		t.Fatalf("after cancel: queue depth %d, in-flight %d; want 0, %d", q, f, slots)
	}
	close(l.release)
	wg.Wait()
	if n := l.passes.Load(); n != int64(slots) {
		t.Fatalf("%d forward passes, want %d: the cancelled caller must not run", n, slots)
	}
	checkIdle(t, s)
}

// TestGateCancelledContextRunsNoForward: a context that is already
// cancelled takes no slot and runs no forward, every time.
func TestGateCancelledContextRunsNoForward(t *testing.T) {
	l := &gateLayer{}
	s := gateScorer(t, l)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for range 100 {
		if _, err := s.LogitsContext(ctx, gateRow(1)); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled LogitsContext returned %v, want context.Canceled", err)
		}
	}
	if n := l.passes.Load(); n != 0 {
		t.Fatalf("100 cancelled calls ran %d forward passes, want 0", n)
	}
	if batches, _ := s.Stats(); batches != 0 {
		t.Fatalf("Stats counts %d passes for cancelled calls, want 0", batches)
	}
	checkIdle(t, s)
}

// TestGateLogits32SharesSlots: the float32 path waits on the same slots as
// the float64 path.
func TestGateLogits32SharesSlots(t *testing.T) {
	s, x := test32Scorer(t, 1)
	x32 := tensor.ToFloat32(x)
	if err := s.EnsurePlan(PrecisionFloat32); err != nil {
		t.Fatal(err)
	}
	for range cap(s.slots) {
		s.slots <- struct{}{}
	}
	done := make(chan error, 1)
	go func() {
		_, err := s.Logits32(x32, PrecisionFloat32)
		done <- err
	}()
	waitFor(t, "the float32 caller to queue", func() bool { return s.QueueDepth() == 1 })
	if f := s.InFlight(); f != 1 {
		t.Fatalf("InFlight %d, want 1", f)
	}
	select {
	case <-done:
		t.Fatal("Logits32 ran while every slot was taken")
	default:
	}
	<-s.slots
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for range cap(s.slots) - 1 {
		<-s.slots
	}
	if batches, rows := s.Stats(); batches != 1 || rows != int64(x.Rows) {
		t.Fatalf("Stats %d passes / %d rows, want 1 / %d", batches, rows, x.Rows)
	}
	checkIdle(t, s)
}
