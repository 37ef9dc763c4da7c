// Command perfbench is malevade's end-to-end benchmark. It builds the real
// serving stack in-process from one seed — scoring daemon and gateway behind
// loopback TCP listeners, the campaign engine, the results store and its
// miner — drives one workload through the public APIs in a closed loop,
// checks every answer against a reference computed before the clock starts,
// and prints the workload's metrics.
//
//	bash perfbench/run.sh --workload score-bin --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics (setup_s, rows_per_s,
// lat_p50_ms, lat_p90_ms, peak_rss_mb), every time rescaled to a reference
// host speed read as the run goes (hostspeed.go), after the same times as
// timed and the readings. With --trace 1 it alternates untraced and traced
// slices of the same workload for --seconds, replays its inputs
// single-threaded through the engines, and prints the per-layer metrics and
// the tracing overhead. The last line of standard output is one JSON
// object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Any failed or wrong answer makes the run exit non-zero after printing.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// system is one booted system under test.
type system interface {
	// op runs one operation as generator g, tagged with op id id. It
	// returns the rows of work completed and the operation's latency, or
	// an error when the call failed, was refused, or answered wrongly.
	op(ctx context.Context, id string, g int) (rows int, lat time.Duration, err error)
	// scrape returns the system's metrics exposition, for counter deltas.
	scrape() ([]byte, error)
	close()
}

// bench is one prepared workload: its seeded inputs and reference answers
// are built, and it can boot systems over them.
type bench interface {
	// boot builds a system from its first constructor call and returns it
	// with its set-up time: up to the first correct answer, or for job
	// workloads the first accepted job (boot then also waits that job out
	// and checks it, off the clock).
	boot(tr *tracer) (system, time.Duration, error)
	// layers computes the workload's own per-layer metrics after a traced
	// phase of ops operations: single-threaded engine replays of its
	// inputs, and its answer counts.
	layers(sys system, spans []span, ops int) (map[string]float64, error)
}

// workload names one traffic mix and how to prepare it.
type workload struct {
	name string
	// generators is the number of closed-loop generator goroutines, one
	// operation in flight each.
	generators int
	prepare    func(f *fixture) (bench, error)
}

var workloads = []workload{
	{name: "score-bin", generators: 2, prepare: prepareScoreBin},
	{name: "probe-json", generators: 2, prepare: prepareProbeJSON},
	{name: "campaign", generators: 2, prepare: prepareCampaign},
	{name: "mine", generators: 1, prepare: prepareMine},
}

const (
	// setupReps is how many times a run boots the system; setup_s is the
	// median, and the last boot serves the timed phase.
	setupReps = 9
	// warmup runs before the timed phase, so connection pools, compiled
	// plans and the heap reach their steady state first.
	warmup = time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: score-bin, probe-json, campaign or mine")
	seed := flag.Uint64("seed", 1, "seed for every generated input")
	seconds := flag.Int("seconds", 20, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds int, traced bool) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 2 {
		return fmt.Errorf("--seconds must be at least 2, got %d", seconds)
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(".bench_build", "run-"+name+"-")
	if err != nil {
		return fmt.Errorf("make scratch dir (run from the repository root): %w", err)
	}
	defer os.RemoveAll(dir)

	fmt.Printf("workload %s  seed %d  seconds %d  trace %v\n", name, seed, seconds, traced)
	f, err := newFixture(seed, dir)
	if err != nil {
		return err
	}
	b, err := w.prepare(f)
	if err != nil {
		return fmt.Errorf("prepare %s: %w", name, err)
	}
	kern, err := newKernels()
	if err != nil {
		return err
	}
	tr := newTracer()
	var sys system
	var setups, setupSpeeds []float64
	for i := 0; i < setupReps; i++ {
		if sys != nil {
			sys.close()
		}
		// Each boot starts on a collected heap, as a fresh process would,
		// not on the garbage of the boot before.
		freeMemory()
		h, _ := kern.hostSpeed()
		setupSpeeds = append(setupSpeeds, h)
		var d time.Duration
		if sys, d, err = b.boot(tr); err != nil {
			return fmt.Errorf("boot %s: %w", name, err)
		}
		setups = append(setups, d.Seconds())
	}
	defer sys.close()
	freeMemory()

	// Operations of every phase count toward attempted and failed,
	// warm-up included; only the measured phase feeds the metrics.
	var seq atomic.Int64
	warm := drive(sys, w.generators, warmup, &seq)
	res := result{Attempted: int64(len(warm.lat)), Failed: warm.failed, Metrics: make(map[string]metric)}
	fails := warm.errs
	if !traced {
		raw, speeds, peaks, err := measure(sys, w.generators, time.Duration(seconds)*time.Second, &seq, kern)
		if err != nil {
			return err
		}
		res.Attempted += int64(len(raw.lat))
		res.Failed += raw.failed
		fails = append(fails, raw.errs...)
		// Every time is rescaled to the reference host speed by the mean
		// reading over its phase. The boots are short and close together,
		// so they share the mean of the readings taken before each.
		h, hSetup := mean(speeds), mean(setupSpeeds)
		p := raw.scaled(h)
		fmt.Printf("host speed %.3f over the timed phase (%.3f-%.3f in %d readings), %.3f over the boots\n",
			h, slices.Min(speeds), slices.Max(speeds), len(speeds), hSetup)
		fmt.Printf("as timed: setup_s %.4f  rows_per_s %.1f  lat_p50_ms %.4f  lat_p90_ms %.4f\n",
			median(setups), raw.rowsPerSec(), percentile(raw.lat, 50), percentile(raw.lat, 90))
		res.Metrics["setup_s"] = metric{median(setups) * hSetup, "s"}
		res.Metrics["rows_per_s"] = metric{p.rowsPerSec(), "1/s"}
		res.Metrics["lat_p50_ms"] = metric{percentile(p.lat, 50), "ms"}
		res.Metrics["lat_p90_ms"] = metric{percentile(p.lat, 90), "ms"}
		res.Metrics["peak_rss_mb"] = metric{median(peaks), "MB"}
		if beyond := len(p.lat) - int(math.Ceil(0.9*float64(len(p.lat)))); beyond < 10 {
			fmt.Fprintf(os.Stderr, "perfbench: only %d operations beyond p90\n", beyond)
		}
	} else {
		layers, plain, p, err := tracedPhase(sys, b, tr, w.generators, time.Duration(seconds)*time.Second, &seq)
		if err != nil {
			return err
		}
		res.Attempted += int64(len(plain.lat) + len(p.lat))
		res.Failed += plain.failed + p.failed
		fails = append(append(fails, plain.errs...), p.errs...)
		layers["trace.overhead_pct"] = 100 * (1 - ratio(p.rowsPerSec(), plain.rowsPerSec()))
		for _, l := range perLayer {
			res.Metrics[l.name] = metric{layers[l.name], l.unit}
		}
	}
	res.Correct = res.Failed == 0

	fmt.Printf("ops attempted %d  succeeded %d  failed %d\n", res.Attempted, res.Attempted-res.Failed, res.Failed)
	for _, err := range fails {
		fmt.Printf("failed op: %v\n", err)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := res.Metrics[k]
		fmt.Printf("%-24s %14.4f %s\n", k, m.Value, m.Unit)
		if math.IsInf(m.Value, 0) || math.IsNaN(m.Value) {
			// A failed operation's +Inf latency has no JSON form; the run
			// is already marked incorrect.
			delete(res.Metrics, k)
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !res.Correct {
		return errors.New("operations failed")
	}
	return nil
}

// freeMemory collects garbage and returns it to the OS, so the resident set
// holds only live memory.
func freeMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

// phase is one closed-loop measurement, or several merged.
type phase struct {
	// lat holds every operation's latency in ms; failed ones are +Inf.
	lat    []float64
	rows   int64
	failed int64
	wall   time.Duration
	// errs keeps the first few failures for the report.
	errs []error
}

func (p phase) rowsPerSec() float64 { return ratio(float64(p.rows), p.wall.Seconds()) }

// add merges another measurement into p.
func (p *phase) add(q phase) {
	p.lat = append(p.lat, q.lat...)
	p.rows += q.rows
	p.failed += q.failed
	p.wall += q.wall
	p.errs = append(p.errs, q.errs...)
}

// scaled returns p with every time in it multiplied by h: p as it would
// have run on a host running at h times the reference speed.
func (p phase) scaled(h float64) phase {
	q := p
	q.lat = make([]float64, len(p.lat))
	for i, l := range p.lat {
		q.lat[i] = l * h // a failure's +Inf stays +Inf
	}
	q.wall = time.Duration(float64(p.wall) * h)
	return q
}

// slice is the length of one stretch of load in the timed phase, between
// two host-speed readings.
const slice = time.Second

// measure runs the timed phase of d as slices of closed-loop load, with a
// host-speed reading before the first slice and after each. It returns the
// phase as timed, the readings, and each slice's resident-set high-water
// mark in MB, less the kernels' buffers. A slice's mark covers the slice
// alone: the fixture, the boots and the warm-up are the benchmark's own
// work, not the running system's.
func measure(sys system, generators int, d time.Duration, seq *atomic.Int64, kern *kernels) (raw phase, speeds, peaks []float64, err error) {
	h, _ := kern.hostSpeed()
	speeds = []float64{h}
	deadline := time.Now().Add(d)
	for left := d; left > 0; left = time.Until(deadline) {
		if err := resetPeakRSS(); err != nil {
			return raw, nil, nil, fmt.Errorf("reset peak RSS: %w", err)
		}
		q := drive(sys, generators, min(slice, left), seq)
		rss, err := peakRSSMB()
		if err != nil {
			return raw, nil, nil, err
		}
		h, gcWait := kern.hostSpeed()
		// A collection still marking when the slice ends is the slice's
		// work: the reading waits it out, and the slice pays for the wait.
		q.wall += gcWait
		raw.add(q)
		speeds = append(speeds, h)
		peaks = append(peaks, rss-kern.residentMB())
	}
	return raw, speeds, peaks, nil
}

// drive runs generators closed-loop goroutines against sys for d: each
// sends its next operation only when the previous one has answered. The
// phase ends when every generator has finished the operation it had in
// flight at the deadline.
func drive(sys system, generators int, d time.Duration, seq *atomic.Int64) phase {
	ctx := context.Background()
	var (
		mu  sync.Mutex
		p   phase
		wg  sync.WaitGroup
		inf = math.Inf(1)
	)
	start := time.Now()
	deadline := start.Add(d)
	for g := 0; g < generators; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				id := fmt.Sprintf("op-%07d", seq.Add(1))
				rows, lat, err := sys.op(ctx, id, g)
				mu.Lock()
				if err != nil {
					p.lat = append(p.lat, inf)
					p.failed++
					if len(p.errs) < 5 {
						p.errs = append(p.errs, fmt.Errorf("%s: %w", id, err))
					}
				} else {
					p.lat = append(p.lat, lat.Seconds()*1000)
					p.rows += int64(rows)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	return p
}
