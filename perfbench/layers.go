package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"
)

// perLayer lists every per-layer metric the traced run prints, in
// BENCHMARK.json order. Metrics taken at a boundary (spans, /metrics
// deltas, job snapshots) read 0 on a workload that never crosses it. The
// engine replays (serve.f32_ms, serve.pool_ms, nn.infer_ms, store.read_ms,
// store.sweep_ms) are different: they time the workload's own inputs
// through an engine off the serving path, so the scoring replays are
// printed on every scoring workload whichever engine its path takes, and a
// non-zero replay is no evidence that the path ran that engine.
var perLayer = []struct{ name, unit string }{
	{"client.self_ms", "ms"},
	{"transport.self_ms", "ms"},
	{"transport.req_kb", "KB"},
	{"transport.resp_kb", "KB"},
	{"gateway.self_ms", "ms"},
	{"server.handler_ms", "ms"},
	{"serve.f32_ms", "ms"},
	{"serve.pool_ms", "ms"},
	{"nn.infer_ms", "ms"},
	{"serve.rows_per_batch", "rows"},
	{"store.fsyncs", "1/1000ops"},
	{"store.fsync_ms", "ms"},
	{"store.append_ms", "ms"},
	{"store.read_ms", "ms"},
	{"store.sweep_ms", "ms"},
	{"campaign.craft_ms", "ms"},
	{"campaign.model_load_ms", "ms"},
	{"campaign.judge_ms", "ms"},
	{"campaign.queue_wait_ms", "ms"},
	{"mine.queue_wait_ms", "ms"},
	{"campaign.evaded_ratio", "ratio"},
	{"mine.findings", "count"},
	{"runtime.alloc_kb_per_op", "KB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

func ms(d time.Duration) float64 { return d.Seconds() * 1000 }

// tracePairs is how many untraced-then-traced slice pairs a traced run
// alternates. Alternating puts host drift on both sides alike, so the
// throughput gap between them measures the tracing overhead.
const tracePairs = 4

// tracedPhase runs d of alternating untraced and traced closed-loop slices
// and derives the per-layer metrics every workload shares: span self times
// and wire bytes per traced operation over the HTTP boundaries, /metrics
// deltas and allocation per operation over the whole phase, and the
// phase's GC cycles and pause total. The workload adds its own (replays,
// job layers, answer counts). Time metrics are means per operation, so the
// layers along the blocking path add up to the mean operation time.
func tracedPhase(sys system, b bench, tr *tracer, generators int, d time.Duration, seq *atomic.Int64) (map[string]float64, phase, phase, error) {
	var plain, traced phase
	before, err := sys.scrape()
	if err != nil {
		return nil, plain, traced, fmt.Errorf("scrape metrics: %w", err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var spans []span
	slice := d / (2 * tracePairs)
	for i := 0; i < tracePairs; i++ {
		plain.add(drive(sys, generators, slice, seq))
		tr.on.Store(true)
		traced.add(drive(sys, generators, slice, seq))
		spans = append(spans, tr.stop()...)
	}
	runtime.ReadMemStats(&m1)
	after, err := sys.scrape()
	if err != nil {
		return nil, plain, traced, fmt.Errorf("scrape metrics: %w", err)
	}
	deltas, err := metricDeltas(before, after)
	if err != nil {
		return nil, plain, traced, err
	}
	ops := float64(len(traced.lat))
	all := float64(len(plain.lat) + len(traced.lat))
	self := selfTimes(spans)
	tot := spanTotals(spans, true)
	l := map[string]float64{
		"client.self_ms":       ms(self["sdk"]) / ops,
		"transport.self_ms":    ms(self["client.rt"]+self["gateway.rt"]) / ops,
		"transport.req_kb":     float64(tot["client.rt"].reqBytes+tot["gateway.rt"].reqBytes) / 1024 / ops,
		"transport.resp_kb":    float64(tot["client.rt"].respBytes+tot["gateway.rt"].respBytes) / 1024 / ops,
		"gateway.self_ms":      ms(self["gateway"]) / ops,
		"server.handler_ms":    ms(tot["server"].dur) / ops,
		"serve.rows_per_batch": ratio(deltas["malevade_serve_batch_rows_sum"], deltas["malevade_serve_batch_rows_count"]),
		"store.fsyncs":         1000 * deltas["malevade_store_fsync_seconds_count"] / all,
		"store.fsync_ms": 1000 * ratio(deltas["malevade_store_fsync_seconds_sum"],
			deltas["malevade_store_fsync_seconds_count"]),
		"runtime.alloc_kb_per_op": float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / all,
		"runtime.gc_cycles":       float64(m1.NumGC - m0.NumGC),
		"runtime.gc_pause_ms":     float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6,
	}
	own, err := b.layers(sys, spans, len(traced.lat))
	if err != nil {
		return nil, plain, traced, err
	}
	for k, v := range own {
		l[k] = v
	}
	return l, plain, traced, nil
}

// timeEach runs fn n times and returns the mean wall time of one call in
// ms — the single-threaded engine replays of the traced run.
func timeEach(n int, fn func(i int) error) (float64, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return 0, err
		}
	}
	return ms(time.Since(start)) / float64(n), nil
}
