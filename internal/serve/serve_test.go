package serve

import (
	"context"
	"errors"
	"sync"
	"testing"

	"malevade/internal/detector"
	"malevade/internal/nn"
	"malevade/internal/rng"
	"malevade/internal/tensor"
)

// testNet builds a small random MLP shaped like a scaled-down detector.
func testNet(t testing.TB) *nn.Network {
	t.Helper()
	net, err := nn.NewMLP(nn.MLPConfig{Dims: []int{24, 16, 8, 2}, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func randomBatch(seed uint64, rows, cols int) *tensor.Matrix {
	r := rng.New(seed)
	x := tensor.New(rows, cols)
	for i := range x.Data {
		x.Data[i] = r.Float64()
	}
	return x
}

// TestScorerMatchesSerial checks the engine against the serial reference
// path bit for bit: logits, probabilities and predictions.
func TestScorerMatchesSerial(t *testing.T) {
	net := testNet(t)
	x := randomBatch(7, 103, net.InDim())
	s := New(net, 1, Options{})
	defer s.Close()

	wantLogits := net.Forward(x, false).Clone()
	gotLogits := s.Logits(x)
	if !wantLogits.SameShape(gotLogits) {
		t.Fatalf("logits shape %dx%d, want %dx%d", gotLogits.Rows, gotLogits.Cols, wantLogits.Rows, wantLogits.Cols)
	}
	for i, v := range wantLogits.Data {
		if gotLogits.Data[i] != v {
			t.Fatalf("logits[%d] = %v, want %v (must be bit-identical)", i, gotLogits.Data[i], v)
		}
	}

	d := detector.NewDNN(net)
	wantProbs := d.MalwareProb(x)
	gotProbs := s.MalwareProb(x)
	for i, v := range wantProbs {
		if gotProbs[i] != v {
			t.Fatalf("prob[%d] = %v, want %v", i, gotProbs[i], v)
		}
	}

	wantPred := d.Predict(x)
	gotPred := s.Predict(x)
	for i, v := range wantPred {
		if gotPred[i] != v {
			t.Fatalf("pred[%d] = %d, want %d", i, gotPred[i], v)
		}
	}
	if s.InDim() != net.InDim() || s.OutDim() != net.OutDim() {
		t.Fatalf("dims %d/%d, want %d/%d", s.InDim(), s.OutDim(), net.InDim(), net.OutDim())
	}
}

// TestScorerConcurrentHammer slams one shared engine from many goroutines
// with distinct batches and verifies every result against the serial
// reference. The race detector (go test -race) is the other half of this
// test.
func TestScorerConcurrentHammer(t *testing.T) {
	net := testNet(t)
	s := New(net, 4, Options{})
	defer s.Close()

	const goroutines = 8
	const iters = 25
	// Pre-compute inputs and serial reference logits.
	inputs := make([]*tensor.Matrix, goroutines)
	want := make([]*tensor.Matrix, goroutines)
	for g := range inputs {
		inputs[g] = randomBatch(uint64(100+g), 5+g*3, net.InDim())
		want[g] = net.Forward(inputs[g], false).Clone()
	}

	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				got := s.Logits(inputs[g])
				for i, v := range want[g].Data {
					if got.Data[i] != v {
						errs <- "goroutine result diverged from serial reference"
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}

	var totalRows int64
	for g := 0; g < goroutines; g++ {
		totalRows += int64(inputs[g].Rows) * iters
	}
	batches, rows := s.Stats()
	if rows != totalRows {
		t.Fatalf("Stats rows = %d, want %d", rows, totalRows)
	}
	if batches <= 0 || batches > rows {
		t.Fatalf("Stats batches = %d out of range (rows %d)", batches, rows)
	}
}

func TestScorerEmptyInput(t *testing.T) {
	net := testNet(t)
	s := New(net, 1, Options{})
	defer s.Close()
	if out := s.Logits(tensor.New(0, net.InDim())); out.Rows != 0 {
		t.Fatalf("empty input scored %d rows", out.Rows)
	}
}

func TestScorerCloseIdempotentAndPanicsAfter(t *testing.T) {
	net := testNet(t)
	s := New(net, 1, Options{})
	s.Close()
	s.Close() // idempotent
	defer func() {
		if recover() == nil {
			t.Fatal("scoring after Close did not panic")
		}
	}()
	s.Logits(randomBatch(1, 1, net.InDim()))
}

// TestLogitsContextCancellation: LogitsContext must match Logits on a live
// context and return the context's error once it is cancelled.
func TestLogitsContextCancellation(t *testing.T) {
	net := testNet(t)
	s := New(net, 1, Options{})
	defer s.Close()

	x := tensor.New(6, 24)
	want := s.Logits(x)
	got, err := s.LogitsContext(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("LogitsContext diverged from Logits at %d", i)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.LogitsContext(ctx, x); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled LogitsContext returned %v, want context.Canceled", err)
	}
}
