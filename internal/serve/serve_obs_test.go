package serve

import (
	"strings"
	"sync"
	"testing"

	"malevade/internal/obs"
	"malevade/internal/tensor"
)

// TestInFlightAndQueueDepth drives concurrent traffic through an
// instrumented scorer and checks that the saturation accessors return to
// zero at quiescence, that the lifetime counters agree with Stats, and
// that the shared batch-rows histogram saw every forward pass.
func TestInFlightAndQueueDepth(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(testNet(t), 1, Options{Obs: reg})
	defer s.Close()

	if s.InFlight() != 0 || s.QueueDepth() != 0 {
		t.Fatalf("idle engine reports in-flight %d, queue %d",
			s.InFlight(), s.QueueDepth())
	}

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				s.Logits(tensor.New(3, s.InDim()))
			}
		}()
	}
	wg.Wait()

	if s.InFlight() != 0 {
		t.Fatalf("in-flight %d after quiescence, want 0", s.InFlight())
	}
	if s.QueueDepth() != 0 {
		t.Fatalf("queue depth %d after quiescence, want 0", s.QueueDepth())
	}
	batches, rows := s.Stats()
	if rows != 8*20*3 {
		t.Fatalf("rows %d, want %d", rows, 8*20*3)
	}

	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "malevade_serve_batch_rows_count "+itoa(batches)) {
		t.Errorf("histogram count != batches (%d):\n%s", batches, out)
	}
	if problems := obs.Lint([]byte(out)); len(problems) != 0 {
		t.Errorf("scrape lint: %v", problems)
	}
}

// TestSharedRegistryAcrossScorers verifies two engines built against one
// registry share the batch-rows histogram instead of fighting over the
// family name.
func TestSharedRegistryAcrossScorers(t *testing.T) {
	reg := obs.NewRegistry()
	net := testNet(t)
	a := New(net, 1, Options{Obs: reg})
	defer a.Close()
	b := New(net, 1, Options{Obs: reg})
	defer b.Close()
	a.Logits(tensor.New(1, net.InDim()))
	b.Logits(tensor.New(1, net.InDim()))
	h := reg.Histogram("malevade_serve_batch_rows",
		"Rows scored by each forward pass.", BatchRowsBuckets)
	if h.Count() != 2 {
		t.Fatalf("shared histogram count %d, want 2", h.Count())
	}
}

func itoa(n int64) string {
	var b [20]byte
	i := len(b)
	if n == 0 {
		return "0"
	}
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
