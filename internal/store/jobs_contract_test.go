package store_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"malevade/internal/attack"
	"malevade/internal/campaign"
	"malevade/internal/campaign/spec"
	"malevade/internal/harden"
	"malevade/internal/jobs"
	"malevade/internal/nn"
	"malevade/internal/obs"
	"malevade/internal/registry"
	"malevade/internal/store"
	"malevade/internal/tensor"
)

// gate holds job bodies at a blocking point until the test lets them on:
// every body that reaches it sends on entered; a receive on release lets
// one body on, and open lets every body on.
type gate struct {
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func newGate() *gate {
	return &gate{entered: make(chan struct{}, 64), release: make(chan struct{})}
}

// hold blocks a body until it is let on or ctx ends, and reports whether
// ctx ended.
func (g *gate) hold(ctx context.Context) error {
	g.entered <- struct{}{}
	select {
	case <-g.release:
	case <-ctx.Done():
	}
	return ctx.Err()
}

// next waits for one more body to reach the gate.
func (g *gate) next(t *testing.T) {
	t.Helper()
	select {
	case <-g.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for a job body to start")
	}
}

// let lets exactly one waiting body on.
func (g *gate) let(t *testing.T) {
	t.Helper()
	select {
	case g.release <- struct{}{}:
	case <-time.After(10 * time.Second):
		t.Fatal("timed out handing a job body its release")
	}
}

func (g *gate) open() { g.once.Do(func() { close(g.release) }) }

// engine is one job kind's engine seen through the contract's eyes.
type engine struct {
	submit func() (string, error)
	status func(id string) (spec.Status, bool)
	list   func() []string
	cancel func(id string) (spec.Status, bool)
	close  func()
	reg    *obs.Registry
}

type limits struct{ workers, queue, history int }

// jobKind builds one kind's engine over dir whose bodies block at g.
type jobKind struct {
	name      string
	resumable bool
	// deaf marks a kind whose held body cannot see a cancellation until
	// the gate lets it on; the others must end cancelled without that, or
	// a release could race their last checkpoint.
	deaf      bool
	queueFull error // the kind's own sentinels
	closed    error
	open      func(t *testing.T, dir string, g *gate, l limits) engine
}

// gatedTarget judges every campaign batch clean once the gate lets it on.
type gatedTarget struct{ g *gate }

func (t gatedTarget) LabelBatch(ctx context.Context, x *tensor.Matrix) ([]int, int64, error) {
	if err := t.g.hold(ctx); err != nil {
		return nil, 0, err
	}
	return make([]int, x.Rows), 1, nil
}

// gatedCampaigns runs every hardening round's campaign until the gate lets
// it on; it then finishes with no evasions, so the job stops done.
type gatedCampaigns struct {
	g     *gate
	mu    sync.Mutex
	seq   int
	state map[string]spec.Status
}

func (c *gatedCampaigns) Submit(sp campaign.Spec) (campaign.Snapshot, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	id := fmt.Sprintf("c%06d", c.seq)
	c.state[id] = campaign.StatusRunning
	c.g.entered <- struct{}{}
	return campaign.Snapshot{ID: id, Spec: sp, Status: campaign.StatusRunning}, nil
}

func (c *gatedCampaigns) Get(id string, _ int) (campaign.Snapshot, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.state[id]
	if !ok {
		return campaign.Snapshot{}, false
	}
	if st == campaign.StatusRunning {
		select {
		case <-c.g.release:
			st = campaign.StatusDone
			c.state[id] = st
		default:
		}
	}
	return campaign.Snapshot{ID: id, Status: st}, true
}

func (c *gatedCampaigns) Cancel(id string) (campaign.Snapshot, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.state[id]; !ok {
		return campaign.Snapshot{}, false
	}
	c.state[id] = campaign.StatusCancelled
	return campaign.Snapshot{ID: id, Status: campaign.StatusCancelled}, true
}

// oneModel is a registry holding one live model, "prod"; hardening never
// reaches Register or GC because no campaign evades.
type oneModel struct{}

func (oneModel) Get(name string) (registry.Info, error) {
	if name != "prod" {
		return registry.Info{}, registry.ErrUnknownModel
	}
	return registry.Info{Name: name, Live: 1, Generation: 1}, nil
}

func (oneModel) LoadLive(string) (*nn.Network, error) {
	return nn.NewMLP(nn.MLPConfig{Dims: []int{4, 2}, Seed: 1})
}

func (oneModel) Register(registry.RegisterRequest) (registry.Info, error) {
	return registry.Info{}, errors.New("unexpected register")
}

func (oneModel) GC(string) (registry.Info, int, error) {
	return registry.Info{}, 0, errors.New("unexpected gc")
}

var jobKinds = []jobKind{
	{
		name: "campaign", queueFull: campaign.ErrQueueFull, closed: campaign.ErrClosed,
		open: func(t *testing.T, dir string, g *gate, l limits) engine {
			net, err := nn.NewMLP(nn.MLPConfig{Dims: []int{4, 2}, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			craft := dir + "/craft.gob"
			if err := net.SaveFile(craft); err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			e := campaign.NewEngine(campaign.Options{Workers: l.workers, QueueDepth: l.queue,
				MaxHistory: l.history, LocalTarget: gatedTarget{g}, Obs: reg})
			sp := campaign.Spec{Attack: attack.Config{Kind: attack.KindFGSM, Theta: 0.1},
				CraftModelPath: craft, Rows: [][]float64{{0.1, 0.2, 0.3, 0.4}}}
			return engine{
				submit: func() (string, error) { s, err := e.Submit(sp); return s.ID, err },
				status: func(id string) (spec.Status, bool) { s, ok := e.Get(id, 0); return s.Status, ok },
				list: func() []string {
					var ids []string
					for _, s := range e.List() {
						ids = append(ids, s.ID)
					}
					return ids
				},
				cancel: func(id string) (spec.Status, bool) { s, ok := e.Cancel(id); return s.Status, ok },
				close:  e.Close,
				reg:    reg,
			}
		},
	},
	{
		name: "harden", resumable: true, queueFull: harden.ErrQueueFull, closed: harden.ErrClosed,
		open: func(t *testing.T, dir string, g *gate, l limits) engine {
			reg := obs.NewRegistry()
			e, err := harden.NewEngine(harden.Options{Dir: dir,
				Campaigns: &gatedCampaigns{g: g, state: map[string]spec.Status{}}, Models: oneModel{},
				Workers: l.workers, QueueDepth: l.queue, MaxHistory: l.history,
				PollInterval: time.Millisecond, Obs: reg})
			if err != nil {
				t.Fatal(err)
			}
			sp := harden.Spec{Model: "prod", Attack: attack.Config{Kind: attack.KindFGSM, Theta: 0.1}, Epochs: 1, Seed: 43}
			return engine{
				submit: func() (string, error) { s, err := e.Submit(sp); return s.ID, err },
				status: func(id string) (spec.Status, bool) { s, ok := e.Get(id); return s.Status, ok },
				list: func() []string {
					var ids []string
					for _, s := range e.List() {
						ids = append(ids, s.ID)
					}
					return ids
				},
				cancel: func(id string) (spec.Status, bool) { s, ok := e.Cancel(id); return s.Status, ok },
				close:  e.Close,
				reg:    reg,
			}
		},
	},
	{
		name: "mine", deaf: true, queueFull: store.ErrMineQueueFull, closed: store.ErrMinerClosed,
		open: func(t *testing.T, dir string, g *gate, l limits) engine {
			reg := obs.NewRegistry()
			st, err := store.Open(store.Options{Dir: dir, Obs: reg})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { st.Close() })
			m := store.NewMiner(st, store.MinerOptions{Workers: l.workers, QueueDepth: l.queue, MaxHistory: l.history})
			// The traffic read has no context: a held sweep reaches its
			// cancellation checkpoint only once the gate lets it on.
			store.SetMinerTraffic(m, func() ([]store.TrafficRow, error) {
				g.hold(context.Background())
				return st.Traffic()
			})
			return engine{
				submit: func() (string, error) { return m.Submit(store.MineSpec{}) },
				status: func(id string) (spec.Status, bool) { s, err := m.Get(id); return s.Status, err == nil },
				list: func() []string {
					var ids []string
					for _, s := range m.List() {
						ids = append(ids, s.ID)
					}
					return ids
				},
				cancel: func(id string) (spec.Status, bool) { s, err := m.Cancel(id); return s.Status, err == nil },
				close:  m.Close,
				reg:    reg,
			}
		},
	},
}

// TestJobContract pins the job runtime's contract on every job kind:
// queue-full backpressure with contiguous ids, cancel while queued and
// while running, Get/List/Cancel answering while a body runs, Close
// cancelling queued and running jobs before it returns, eviction of only
// the oldest terminal jobs, each terminal job counted exactly once, and a
// resumable engine reopened with resumed jobs still admitting exactly
// QueueDepth new ones.
func TestJobContract(t *testing.T) {
	for _, k := range jobKinds {
		t.Run(k.name+"/queue_full", func(t *testing.T) { testQueueFull(t, k) })
		t.Run(k.name+"/cancel", func(t *testing.T) { testCancel(t, k) })
		t.Run(k.name+"/close", func(t *testing.T) { testClose(t, k) })
		t.Run(k.name+"/evict", func(t *testing.T) { testEvict(t, k) })
		if k.resumable {
			t.Run(k.name+"/resume_admission", func(t *testing.T) { testResumeAdmission(t, k) })
		}
	}
}

// start opens k's engine and arranges for every held body to be let on
// and the engine closed when the test ends, pass or fail.
func start(t *testing.T, k jobKind, dir string, g *gate, l limits) engine {
	e := k.open(t, dir, g, l)
	t.Cleanup(e.close)
	t.Cleanup(g.open)
	return e
}

func mustSubmit(t *testing.T, e engine) string {
	t.Helper()
	id, err := e.submit()
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func waitStatus(t *testing.T, e engine, id string, want spec.Status) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, ok := e.status(id)
		if ok && st == want {
			return
		}
		if (ok && st.Terminal()) || time.Now().After(deadline) {
			t.Fatalf("job %s: status %q (known %v), want %q", id, st, ok, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// seqOf is an id's sequence number ("m000042" → 42).
func seqOf(t *testing.T, id string) int {
	t.Helper()
	n, err := strconv.Atoi(id[1:])
	if err != nil {
		t.Fatalf("id %q: %v", id, err)
	}
	return n
}

// counted reads the kind's terminal counter for one status.
func counted(t *testing.T, k jobKind, e engine, status spec.Status) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := e.reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseText(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		if s.Name == "malevade_"+k.name+"_jobs_total" && s.Labels["status"] == string(status) {
			return s.Value
		}
	}
	return 0
}

func testQueueFull(t *testing.T, k jobKind) {
	g := newGate()
	e := start(t, k, t.TempDir(), g, limits{workers: 1, queue: 2, history: 64})
	a := mustSubmit(t, e)
	g.next(t)
	b := mustSubmit(t, e)
	c := mustSubmit(t, e)
	_, err := e.submit()
	if !errors.Is(err, jobs.ErrQueueFull) || !errors.Is(err, k.queueFull) {
		t.Fatalf("submit past QueueDepth: err %v, want the queue-full sentinel", err)
	}
	// A job cancelled while queued no longer waits, so it frees its slot,
	// and the rejected submit consumed no id.
	if st, ok := e.cancel(b); !ok || st != spec.StatusCancelled {
		t.Fatalf("cancel queued job: %q %v", st, ok)
	}
	d := mustSubmit(t, e)
	for i, id := range []string{b, c, d} {
		if seqOf(t, id) != seqOf(t, a)+i+1 {
			t.Fatalf("ids %s %s %s %s are not contiguous", a, b, c, d)
		}
	}
	g.open()
	for _, id := range []string{a, c, d} {
		waitStatus(t, e, id, spec.StatusDone)
	}
	if n := len(g.entered); n != 2 {
		t.Fatalf("%d more bodies ran after the first, want 2 (the cancelled job must never run)", n)
	}
	if got := counted(t, k, e, spec.StatusDone); got != 3 {
		t.Errorf("done counted %v times, want 3", got)
	}
	if got := counted(t, k, e, spec.StatusCancelled); got != 1 {
		t.Errorf("cancelled counted %v times, want 1", got)
	}
}

func testCancel(t *testing.T, k jobKind) {
	g := newGate()
	e := start(t, k, t.TempDir(), g, limits{workers: 1, queue: 4, history: 64})
	a := mustSubmit(t, e)
	g.next(t)
	b := mustSubmit(t, e)
	if st, ok := e.cancel(b); !ok || st != spec.StatusCancelled {
		t.Fatalf("cancel queued job: %q %v, want cancelled at once", st, ok)
	}

	// Get, List and Cancel answer while a's body is held mid-run.
	answered := make(chan error, 1)
	go func() {
		if st, ok := e.status(a); !ok || st != spec.StatusRunning {
			answered <- fmt.Errorf("get running job: %q %v", st, ok)
			return
		}
		if ids := e.list(); !slices.Equal(ids, []string{a, b}) {
			answered <- fmt.Errorf("list %v, want [%s %s]", ids, a, b)
			return
		}
		if _, ok := e.cancel(a); !ok {
			answered <- fmt.Errorf("cancel running job: unknown")
			return
		}
		answered <- nil
	}()
	select {
	case err := <-answered:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Get, List or Cancel blocked behind a running body")
	}
	if k.deaf {
		g.open()
	}
	waitStatus(t, e, a, spec.StatusCancelled)
	waitStatus(t, e, b, spec.StatusCancelled)
	if n := len(g.entered); n != 0 {
		t.Fatalf("the job cancelled while queued ran (%d bodies)", n)
	}
	if got := counted(t, k, e, spec.StatusCancelled); got != 2 {
		t.Errorf("cancelled counted %v times, want 2", got)
	}
}

func testClose(t *testing.T, k jobKind) {
	g := newGate()
	e := start(t, k, t.TempDir(), g, limits{workers: 1, queue: 4, history: 64})
	a := mustSubmit(t, e)
	g.next(t)
	b := mustSubmit(t, e)
	closed := make(chan struct{})
	go func() {
		e.close()
		close(closed)
	}()
	// Close cancels the queued job before it waits on the running one.
	waitStatus(t, e, b, spec.StatusCancelled)
	if k.deaf {
		g.open()
	}
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return")
	}
	// Close waited for the running body, whose job is terminal by now.
	if st, _ := e.status(a); st != spec.StatusCancelled {
		t.Fatalf("running job after Close: %q, want cancelled", st)
	}
	if n := len(g.entered); n != 0 {
		t.Fatalf("the queued job ran during Close (%d bodies)", n)
	}
	if _, err := e.submit(); !errors.Is(err, jobs.ErrClosed) || !errors.Is(err, k.closed) {
		t.Fatalf("submit after Close: err %v, want the closed sentinel", err)
	}
	// A resumable kind's shutdown is an interruption, not a terminal job.
	want := 2.0
	if k.resumable {
		want = 0
	}
	if got := counted(t, k, e, spec.StatusCancelled); got != want {
		t.Errorf("cancelled counted %v times after Close, want %v", got, want)
	}
}

func testEvict(t *testing.T, k jobKind) {
	g := newGate()
	e := start(t, k, t.TempDir(), g, limits{workers: 1, queue: 8, history: 2})
	var done []string
	for range 2 {
		id := mustSubmit(t, e)
		g.next(t)
		g.let(t)
		waitStatus(t, e, id, spec.StatusDone)
		done = append(done, id)
	}
	c := mustSubmit(t, e) // evicts the first done job
	g.next(t)
	d := mustSubmit(t, e) // evicts the second
	x := mustSubmit(t, e) // everything retained is live: nothing to evict
	if ids := e.list(); !slices.Equal(ids, []string{c, d, x}) {
		t.Fatalf("history %v, want [%s %s %s]", ids, c, d, x)
	}
	for _, id := range done {
		if _, ok := e.status(id); ok {
			t.Errorf("evicted job %s still answers", id)
		}
	}
	g.open()
	for _, id := range []string{c, d, x} {
		waitStatus(t, e, id, spec.StatusDone)
	}
}

func testResumeAdmission(t *testing.T, k jobKind) {
	dir := t.TempDir()
	l := limits{workers: 1, queue: 2, history: 64}
	g := newGate()
	e := k.open(t, dir, g, l)
	a := mustSubmit(t, e)
	g.next(t)
	mustSubmit(t, e)
	mustSubmit(t, e)
	e.close() // one running and two queued jobs stay resumable on disk

	g2 := newGate()
	e2 := start(t, k, dir, g2, l)
	g2.next(t) // the first resumed job runs again; two more wait
	var fresh []string
	for range l.queue {
		fresh = append(fresh, mustSubmit(t, e2))
	}
	if _, err := e2.submit(); !errors.Is(err, jobs.ErrQueueFull) {
		t.Fatalf("submit %d past QueueDepth beside resumed jobs: err %v, want queue full", l.queue+1, err)
	}
	if seqOf(t, fresh[0]) != seqOf(t, a)+3 {
		t.Fatalf("first new id after restart %s, want the sequence to continue past %s+2", fresh[0], a)
	}
	g2.open()
	for _, id := range e2.list() {
		waitStatus(t, e2, id, spec.StatusDone)
	}
}
