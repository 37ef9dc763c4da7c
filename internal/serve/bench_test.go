package serve

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"malevade/internal/dataset"
	"malevade/internal/nn"
	"malevade/internal/tensor"
)

// benchCallersInputs returns the paper-shaped 491-512-256-2 network and
// generated-corpus test rows for BenchmarkScorerCallers.
func benchCallersInputs(b *testing.B) (*nn.Network, *tensor.Matrix) {
	b.Helper()
	net, err := nn.NewMLP(nn.MLPConfig{Dims: []int{491, 512, 256, 2}, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	corpus, err := dataset.Generate(dataset.TableIConfig(3).Scaled(50))
	if err != nil {
		b.Fatal(err)
	}
	return net, corpus.Test.X
}

// BenchmarkScorerCallers measures the scorer under closed-loop load, the
// shape of the oracle and campaign-judging paths: C callers each send
// 1–16 rows per call (8.5 on average) back to back, b.N calls in all. It
// reports rows/s over the whole run and the p99 call latency.
//
// The rows=2048 case is one caller sending 2048-row calls, each scored in
// one forward pass on that caller's goroutine.
//
//	go test -run '^$' -bench BenchmarkScorerCallers -benchtime 2s -count 3 ./internal/serve
func BenchmarkScorerCallers(b *testing.B) {
	net, x := benchCallersInputs(b)
	for _, callers := range []int{1, 2, 8, 32} {
		b.Run(fmt.Sprintf("callers=%d", callers), func(b *testing.B) {
			benchCallers(b, net, callers, func(i int64) *tensor.Matrix {
				n := 1 + int(i%16)
				lo := int(i*7919) % (x.Rows - n)
				return tensor.FromSlice(n, x.Cols, x.Data[lo*x.Cols:(lo+n)*x.Cols])
			})
		})
	}
	big := tensor.New(2048, x.Cols)
	for r := range big.Rows {
		copy(big.Row(r), x.Row(r%x.Rows))
	}
	b.Run("callers=1/rows=2048", func(b *testing.B) {
		benchCallers(b, net, 1, func(int64) *tensor.Matrix { return big })
	})
}

// benchCallers runs b.N calls of batch(i) through a fresh scorer from the
// given number of closed-loop callers.
func benchCallers(b *testing.B, net *nn.Network, callers int, batch func(i int64) *tensor.Matrix) {
	s := New(net, 1, Options{})
	defer s.Close()
	lat := make([][]time.Duration, callers)
	var next, rows atomic.Int64
	var wg sync.WaitGroup
	b.ResetTimer()
	for c := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(b.N); i = next.Add(1) - 1 {
				x := batch(i)
				start := time.Now()
				s.Logits(x)
				lat[c] = append(lat[c], time.Since(start))
				rows.Add(int64(x.Rows))
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	all := slices.Concat(lat...)
	slices.Sort(all)
	b.ReportMetric(float64(rows.Load())/b.Elapsed().Seconds(), "rows/s")
	b.ReportMetric(float64(all[(len(all)-1)*99/100])/float64(time.Millisecond), "p99_ms")
}
