package client_test

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"malevade/internal/client"
	"malevade/internal/nn"
	"malevade/internal/serve"
	"malevade/internal/server"
	"malevade/internal/tensor"
)

// The client-overhead benchmark pair: BenchmarkDirectScore measures the
// in-process batched scoring engine on a full-width paper-sized model at
// batch 256; BenchmarkClientScore measures the identical workload driven
// through the client SDK against a live daemon on localhost (real TCP,
// real JSON). BENCH_client.json commits the measured baseline; the
// redesign's budget is client overhead below 15% at this operating point.

const benchBatch = 256

var (
	benchOnce   sync.Once
	benchNet    *nn.Network
	benchScorer *serve.Scorer
	benchTS     *httptest.Server
	benchX      *tensor.Matrix
	benchX32    *tensor.Matrix32
)

// benchSetup builds one full-width (491-512-256-2) network, an in-process
// engine over it, and a live daemon serving the same model file.
func benchSetup(b *testing.B) {
	b.Helper()
	benchOnce.Do(func() {
		net, err := nn.NewMLP(nn.MLPConfig{Dims: []int{491, 512, 256, 2}, Seed: 7})
		if err != nil {
			panic(err)
		}
		benchNet = net
		dir, err := os.MkdirTemp("", "malevade-bench")
		if err != nil {
			panic(err)
		}
		path := filepath.Join(dir, "model.gob")
		if err := net.SaveFile(path); err != nil {
			panic(err)
		}
		srv, err := server.New(server.Options{ModelPath: path})
		if err != nil {
			panic(err)
		}
		benchTS = httptest.NewServer(srv)
		benchScorer = serve.New(net, 1, serve.Options{})

		benchX = tensor.New(benchBatch, 491)
		rng := uint64(99)
		for i := range benchX.Data {
			rng = rng*6364136223846793005 + 1442695040888963407
			if rng%10 < 3 {
				benchX.Data[i] = 1
			}
		}
		benchX32 = tensor.ToFloat32(benchX)
	})
}

// BenchmarkDirectScore is the in-process reference: one 256-row batch per
// iteration through the scoring engine's float64 path.
func BenchmarkDirectScore(b *testing.B) {
	benchSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchScorer.Logits(benchX)
	}
	b.ReportMetric(float64(benchBatch)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkDirectScoreF32 is the in-process float32 hot path over the
// identical workload: register-tiled float32 kernels through the
// compiled inference plan, verdicts included. BENCH_infer.json commits
// this against BenchmarkDirectScore's float64 reference.
func BenchmarkDirectScoreF32(b *testing.B) {
	benchSetup(b)
	if err := benchScorer.EnsurePlan(serve.PrecisionFloat32); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := benchScorer.Verdicts32(benchX32, serve.PrecisionFloat32); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(benchBatch)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkClientScore drives the identical batches through the client
// SDK against the live localhost daemon.
func BenchmarkClientScore(b *testing.B) {
	benchSetup(b)
	c := client.New(benchTS.URL)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Score(ctx, benchX); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(benchBatch)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkClientScoreBinary is the same SDK workload under the binary
// rows codec: float32 frames on the wire, the daemon's zero-copy decode
// and float32 plan underneath. BENCH_wire.json commits this against
// BenchmarkClientScore's JSON baseline.
func BenchmarkClientScoreBinary(b *testing.B) {
	benchSetup(b)
	c := client.New(benchTS.URL)
	c.Codec = client.CodecBinary
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.Score(ctx, benchX); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(benchBatch)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}
