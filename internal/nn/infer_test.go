package nn

import (
	"runtime"
	"sync"
	"testing"
	"weak"

	"malevade/internal/rng"
	"malevade/internal/tensor"
)

// The workspace inference path must be (a) bit-identical to the train-time
// Forward in inference mode and (b) safe to run from many goroutines
// against one shared network — the foundation the serve engine and every
// concurrent caller stand on. Run with -race.

func randomInput(seed uint64, rows, cols int) *tensor.Matrix {
	r := rng.New(seed)
	x := tensor.New(rows, cols)
	for i := range x.Data {
		x.Data[i] = r.NormFloat64()
	}
	return x
}

// TestInferMatchesForward compares Infer against Forward(x, false) bit for
// bit, on every activation and with a dropout layer in the stack (identity
// at inference).
func TestInferMatchesForward(t *testing.T) {
	for _, act := range []string{"relu", "sigmoid", "tanh"} {
		net, err := NewMLP(MLPConfig{Dims: []int{9, 12, 7, 3}, Activation: act, DropoutRate: 0.4, Seed: 21})
		if err != nil {
			t.Fatal(err)
		}
		x := randomInput(22, 6, 9)
		want := net.Forward(x, false).Clone()
		ws := net.NewWorkspace()
		got := net.Infer(ws, x)
		for i, v := range want.Data {
			if got.Data[i] != v {
				t.Fatalf("%s: Infer diverges from Forward at %d: %v vs %v", act, i, got.Data[i], v)
			}
		}
	}
}

// TestInferWorkspaceReuseAcrossShapes alternates batch sizes through one
// workspace; buffers must resize without corrupting results.
func TestInferWorkspaceReuseAcrossShapes(t *testing.T) {
	net, err := NewMLP(MLPConfig{Dims: []int{5, 8, 2}, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	ws := net.NewWorkspace()
	for i, rows := range []int{1, 17, 3, 17, 1} {
		x := randomInput(uint64(30+i), rows, 5)
		want := net.Forward(x, false).Clone()
		got := net.Infer(ws, x)
		for j, v := range want.Data {
			if got.Data[j] != v {
				t.Fatalf("rows=%d: Infer diverges at %d", rows, j)
			}
		}
	}
}

// TestInferConcurrentHammer shares one network among many goroutines, each
// with its own workspace, while a reference goroutine also uses the pooled
// entry points. Any cross-caller state would trip -race or diverge.
func TestInferConcurrentHammer(t *testing.T) {
	net, err := NewMLP(MLPConfig{Dims: []int{11, 16, 9, 2}, Activation: "tanh", Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	const iters = 40
	inputs := make([]*tensor.Matrix, goroutines)
	want := make([]*tensor.Matrix, goroutines)
	for g := range inputs {
		inputs[g] = randomInput(uint64(50+g), 2+g, 11)
		want[g] = net.Forward(inputs[g], false).Clone()
	}
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ws := net.NewWorkspace()
			for it := 0; it < iters; it++ {
				var got *tensor.Matrix
				switch it % 3 {
				case 0:
					got = net.Infer(ws, inputs[g])
				case 1:
					got = net.Logits(inputs[g]) // pooled path
				default:
					// PredictClass exercises the pooled path too; check
					// the argmax agrees with the reference logits.
					pred := net.PredictClass(inputs[g])
					for i, p := range pred {
						if p != want[g].RowArgmax(i) {
							errs <- "PredictClass diverged under concurrency"
							return
						}
					}
					continue
				}
				for i, v := range want[g].Data {
					if got.Data[i] != v {
						errs <- "Infer/Logits diverged under concurrency"
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
}

// TestConcurrentProbsWithSingleGradientUser models a crafting loop next to
// live scoring: one goroutine takes input gradients (ClassGradient) while
// concurrent readers score through the workspace path. The reader results
// must stay exact; -race guards the rest.
func TestConcurrentProbsWithSingleGradientUser(t *testing.T) {
	net, err := NewMLP(MLPConfig{Dims: []int{7, 10, 2}, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	x := randomInput(62, 4, 7)
	wantProbs := net.Probs(x, 1).Clone()

	stop := make(chan struct{})
	gradDone := make(chan struct{})
	go func() { // the single gradient user
		defer close(gradDone)
		for {
			select {
			case <-stop:
				return
			default:
				net.ClassGradient(x, 0, 1)
			}
		}
	}()
	var readers sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for it := 0; it < 50; it++ {
				got := net.Probs(x, 1)
				for i, v := range wantProbs.Data {
					if got.Data[i] != v {
						errs <- "Probs diverged while a gradient user was active"
						return
					}
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	<-gradDone
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

// TestSharedWeightsGradientHammer shares one network among eight goroutines
// that take input gradients at once, mixed with pooled scoring: each must
// get the serial result, bit for bit. Gradients keep their activations in
// per-call workspaces, so crafting needs no private copy of the network.
// Run with -race.
func TestSharedWeightsGradientHammer(t *testing.T) {
	net, err := NewMLP(MLPConfig{Dims: []int{11, 16, 9, 2}, Activation: "tanh", Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	const iters = 30
	inputs := make([]*tensor.Matrix, goroutines)
	want := make([]*tensor.Matrix, goroutines)
	for g := range inputs {
		inputs[g] = randomInput(uint64(70+g), 1+g, 11)
		want[g], _ = net.ClassGradient(inputs[g], g%2, 1)
	}
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				got, _ := net.ClassGradient(inputs[g], g%2, 1)
				for i, v := range want[g].Data {
					if got.Data[i] != v {
						errs <- "ClassGradient diverged under concurrency"
						return
					}
				}
				net.Probs(inputs[g], 1)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}

// TestSharedWeightsPoolReleasesNetwork drops a network after its pooled
// entry points and ClassGradient have been used: one garbage collection
// must free it. The runtime keeps a used sync.Pool registered for two more
// collections, so a pool inside the Network, or a pooled workspace that
// pointed back at it, would keep the network and its weights alive that
// long — for every model a daemon or campaign loads and drops.
func TestSharedWeightsPoolReleasesNetwork(t *testing.T) {
	wp := usedNetwork(t)
	runtime.GC()
	if wp.Value() != nil {
		t.Fatal("network still reachable after its last reference was dropped and one GC ran")
	}
}

// usedNetwork builds a network, runs every pooled entry point on it, and
// returns only a weak pointer to it.
func usedNetwork(t *testing.T) weak.Pointer[Network] {
	t.Helper()
	net, err := NewMLP(MLPConfig{Dims: []int{9, 12, 2}, Seed: 45})
	if err != nil {
		t.Fatal(err)
	}
	x := randomInput(46, 3, 9)
	net.Logits(x)
	net.Probs(x, 1)
	net.PredictClass(x)
	net.ClassGradient(x, 0, 1)
	return weak.Make(net)
}
