package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// The benchmark runs on shared hosts whose speed drifts: a fixed CPU loop
// on a 2-vCPU Xeon guest ran anywhere from 0.6 to 1.2 times its usual rate,
// in phases lasting seconds to minutes, with no steal time reported, so the
// slowdown comes from the sharing of the host's cores and caches by other
// guests. Ten runs of identical code spread by a third on such a host.
//
// So the run measures the host as it goes. Between the slices of the timed
// phase, and before each set-up boot, while the system under test is idle,
// it times three fixed kernels that live here and not in the program, and
// rescales every time it reports to what it would read on the reference
// host speed below. A change to the program cannot move the kernels, and
// a slower host slows both roughly alike (perfbench/notes.json says how
// closely), so the rescaled times hold far steadier than the times as
// timed.

// Reference rates, in kernel rounds per second summed over the GOMAXPROCS
// goroutines: round figures near the fast readings of the 2-vCPU Xeon the
// bounds were set on, where a busy spell reads 0.6-0.9 of them. They fix
// the scale only; comparisons between runs do not depend on them.
var refRates = [3]float64{16000, 130000, 700} // dot, branchy, stream

// kernelTime is how long each kernel runs in one measurement.
const kernelTime = 25 * time.Millisecond

// The three kernels stand for the kinds of work the workloads do, with
// working sets of like size: dense float arithmetic streaming 1 MB through
// the core's L2 (the float32 weights of the target model are 1 MB), branchy
// byte, integer and map work on small cache-resident buffers (JSON, HTTP
// and wire parsing), and reads far past the L2 (the store's 16 MB log,
// 0.5 MB frames). Of the small and large variants tried, this mix tracked
// the workloads best. None of the kernels allocates, so no collection runs
// while they do.
type kernels struct {
	vec []float32
	// idx is read-only once built.
	idx map[string]int
	// big is mapped outside the Go heap, so the benchmark's own working set
	// does not raise the heap goal of the program under test; it stays
	// mapped until the process exits.
	big []byte
	// sink keeps the kernels' results live, so the compiler cannot drop
	// their work.
	sink float64
}

const (
	dotFloats = 256 << 10
	// streamBytes is past a core's 2 MB L2 and a good part of the shared
	// L3.
	streamBytes = 32 << 20
)

func newKernels() (*kernels, error) {
	big, err := syscall.Mmap(-1, 0, streamBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map the streaming kernel's buffer: %w", err)
	}
	k := &kernels{
		vec: make([]float32, dotFloats),
		idx: make(map[string]int, 256),
		big: big,
	}
	for i := range k.vec {
		k.vec[i] = float32(i%97) * 0.001
	}
	for i := 0; i < 256; i++ {
		k.idx[strconv.Itoa(i*7919)] = i
	}
	for i := range k.big {
		k.big[i] = byte(i % 31)
	}
	return k, nil
}

// residentMB is the resident size of the kernels' buffers, which the
// process's resident-set readings include.
func (k *kernels) residentMB() float64 {
	return float64(len(k.big)+4*len(k.vec)) / (1 << 20)
}

// worker is one goroutine's scratch space. Each worker is allocated on its
// own and the kernels write it once per round, so two goroutines never
// contend for a cache line.
type worker struct {
	ints []int
	sum  float64
}

func (k *kernels) dot(w *worker) {
	var s float32
	for i := 0; i < len(k.vec); i += 2 {
		s += k.vec[i] * k.vec[i+1]
	}
	w.sum += float64(s)
}

func (k *kernels) branchy(w *worker) {
	var digits [24]byte // on this goroutine's stack
	buf, ints, n := digits[:0], w.ints, 0
	for i := 0; i < 256; i++ {
		buf = strconv.AppendInt(buf[:0], int64(i*7919), 10)
		n += k.idx[string(buf)]
	}
	for i := range ints {
		ints[i] = (i * 7919) % 1021
	}
	sort.Ints(ints)
	w.sum += float64(n + ints[10])
}

// stream reads one byte of every 64-byte cache line of big.
func (k *kernels) stream(w *worker) {
	s := 0
	for i := 0; i < len(k.big); i += 64 {
		s += int(k.big[i])
	}
	w.sum += float64(s)
}

// hostSpeed runs each kernel for kernelTime on every GOMAXPROCS goroutine
// and returns the geometric mean of their rates over the reference rates:
// 1 at the reference speed, 0.8 on a host running 20% slow. It first waits
// out any collection still marking, so the reading sees an idle process,
// and returns how long that wait took: the caller charges it to the work
// that produced the garbage.
func (k *kernels) hostSpeed() (speed float64, gcWait time.Duration) {
	start := time.Now()
	gc := debug.SetGCPercent(-1) // returns once no collection is marking
	gcWait = time.Since(start)
	defer debug.SetGCPercent(gc)

	procs := runtime.GOMAXPROCS(0)
	workers := make([]*worker, procs)
	for i := range workers {
		workers[i] = &worker{ints: make([]int, 256)}
	}
	logSum := 0.0
	for i, kern := range []func(*worker){k.dot, k.branchy, k.stream} {
		// Each goroutine times its own rounds from when it starts running,
		// so a late wake-up of an idle vCPU does not read as a slow host.
		var wg sync.WaitGroup
		rates := make([]float64, procs)
		for g := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				begin := time.Now()
				end := begin.Add(kernelTime)
				n := 0
				for time.Now().Before(end) {
					kern(workers[g])
					n++
				}
				rates[g] = float64(n) / time.Since(begin).Seconds()
			}()
		}
		wg.Wait()
		total := 0.0
		for _, r := range rates {
			total += r
		}
		logSum += math.Log(total / refRates[i])
	}
	for _, w := range workers {
		k.sink += w.sum
	}
	return math.Exp(logSum / 3), gcWait
}
