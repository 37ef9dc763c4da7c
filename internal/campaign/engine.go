package campaign

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"time"

	"malevade/internal/attack"
	"malevade/internal/experiments"
	"malevade/internal/jobs"
	"malevade/internal/nn"
	"malevade/internal/obs"
	"malevade/internal/tensor"
)

// Options configures an Engine. The zero value picks defaults; LocalTarget
// and CraftModel are only required for specs that actually use them (a spec
// with TargetURL and CraftModelPath set needs neither).
type Options struct {
	// Workers is the number of campaigns that run concurrently
	// (default 2). Queued campaigns wait for a free worker.
	Workers int
	// QueueDepth bounds campaigns waiting beyond the running ones
	// (default 16); Submit fails with ErrQueueFull past it.
	QueueDepth int
	// MaxSamples caps any campaign's population (default 4096).
	MaxSamples int
	// DefaultBatch is the per-batch sample count when a spec does not
	// set one (default 64).
	DefaultBatch int
	// Retries is how many times a failed target evaluation is retried
	// before the campaign fails (default 2).
	Retries int
	// MaxHistory bounds how many campaigns the engine remembers (default
	// 256). When a submission would exceed it, the oldest terminal
	// campaigns are evicted — their ids then answer "unknown" — so a
	// long-lived daemon's memory stays bounded; live campaigns are never
	// evicted.
	MaxHistory int
	// LocalTarget serves specs with no TargetURL — the host's own model.
	LocalTarget Target
	// RemoteTarget builds the Target for specs that name a TargetURL.
	// The engine itself has no wire client; hosts inject one (the facade
	// and the HTTP daemon wire in the client SDK's CampaignTarget). A nil
	// factory rejects TargetURL specs at execution time.
	RemoteTarget func(baseURL string) (Target, error)
	// NamedTarget builds the Target for specs that name a TargetModel —
	// the host's model registry (the HTTP daemon wires a generation-pinned
	// registry target). Submit invokes the factory synchronously to
	// validate the name, so an unknown model is a 422 at the API layer
	// rather than an asynchronous job failure. A nil factory rejects
	// TargetModel specs at submit time.
	NamedTarget func(model string) (Target, error)
	// CraftModel returns the default crafting model for specs with no
	// CraftModelPath. It may return the same shared network to every
	// campaign: crafting only reads the weights, so concurrent campaigns
	// can attack one network, as long as nothing trains it meanwhile.
	CraftModel func() (*nn.Network, error)
	// NamedCraftModel returns the default crafting model for specs that
	// name a TargetModel and no CraftModelPath — white-box on the named
	// model's live version, shared like CraftModel's. Falls back to
	// CraftModel when nil.
	NamedCraftModel func(model string) (*nn.Network, error)
	// Sink, when non-nil, receives every campaign's durable event stream
	// (accepted spec, judged batches, terminal snapshot) — the results
	// store. Sink errors are logged, never fatal to the campaign.
	Sink Sink
	// BaseSeq seeds the id counter so engine-assigned c%06d ids stay
	// unique across daemon restarts (the store's MaxCampaignSeq).
	BaseSeq int64
	// Logger, when non-nil, receives a structured event per campaign
	// transition (queued, running, terminal, cancelled, evicted).
	Logger *slog.Logger
	// Obs, when set, receives engine metrics: terminal campaigns by
	// status (malevade_campaign_jobs_total) and a start-to-terminal
	// duration histogram (malevade_campaign_seconds).
	Obs *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 16
	}
	if o.MaxSamples <= 0 {
		o.MaxSamples = 4096
	}
	if o.DefaultBatch <= 0 {
		o.DefaultBatch = 64
	}
	if o.Retries <= 0 {
		o.Retries = 2
	}
	if o.MaxHistory <= 0 {
		o.MaxHistory = 256
	}
	return o
}

// Submission errors an API layer maps to status codes: the job runtime's
// own, so errors.Is matches either spelling.
var (
	// ErrQueueFull rejects a Submit while QueueDepth campaigns are waiting
	// for a worker.
	ErrQueueFull = jobs.ErrQueueFull
	// ErrClosed rejects a Submit on a closed engine.
	ErrClosed = jobs.ErrClosed
)

// state is one campaign's spec and progress, the payload of its runtime
// job; read and write it under the job's lock.
type state struct {
	spec Spec
	// sink is set only when the engine's sink accepted CampaignStarted,
	// so a log that failed to open is not streamed into.
	sink        Sink
	total       int
	batches     int
	retries     int
	generations []int64
	detected    int // baseline detections among judged samples
	evaded      int // adversarial evasions among judged samples
	results     []SampleResult
}

type job = jobs.Job[state]

// Engine is the asynchronous campaign orchestrator: the campaign body and
// snapshots over the shared job runtime (internal/jobs), which queues,
// runs, cancels and retires campaigns by id. Create with NewEngine, Close
// when done; all methods are safe for concurrent use.
type Engine struct {
	opts Options
	log  *slog.Logger
	rt   *jobs.Runtime[state]
}

// NewEngine starts an engine with opts.Workers campaign workers.
func NewEngine(opts Options) *Engine {
	e := &Engine{opts: opts.withDefaults()}
	e.log = obs.Or(e.opts.Logger)
	e.rt = jobs.New(jobs.Config[state]{
		Kind:       "campaign",
		Workers:    e.opts.Workers,
		QueueDepth: e.opts.QueueDepth,
		MaxHistory: e.opts.MaxHistory,
		BaseSeq:    e.opts.BaseSeq,
		Logger:     e.opts.Logger,
		Obs:        e.opts.Obs,
		Run:        e.execute,
		Admit:      e.admit,
		Finish:     e.finish,
	})
	return e
}

// Submit validates a spec, enqueues it and returns the queued snapshot.
// The engine never blocks the caller: a full queue is ErrQueueFull.
func (e *Engine) Submit(spec Spec) (Snapshot, error) {
	if err := spec.Validate(e.opts.MaxSamples); err != nil {
		return Snapshot{}, err
	}
	if len(spec.Rows) == 0 {
		// Profile-populated specs must name a real profile; resolving it
		// here keeps the rejection synchronous (422 at the API layer)
		// instead of failing inside the asynchronous job.
		if _, err := experiments.ProfileByName(spec.Profile); err != nil {
			return Snapshot{}, err
		}
	}
	if spec.TargetModel != "" {
		// Resolve the named registry target synchronously too: an unknown
		// model (or a host with no registry) rejects at submit time.
		if e.opts.NamedTarget == nil {
			return Snapshot{}, fmt.Errorf("campaign: spec names target_model %q but the engine has no model registry", spec.TargetModel)
		}
		if _, err := e.opts.NamedTarget(spec.TargetModel); err != nil {
			return Snapshot{}, err
		}
	}
	j, err := e.rt.Submit(state{spec: spec, total: len(spec.Rows)})
	if err != nil {
		return Snapshot{}, err
	}
	return snapshot(j, 0, false), nil
}

// admit opens the campaign's durable log before the job can produce a
// result, so the sink's event stream always begins with Started. A sink
// failure downgrades the campaign to in-memory only.
func (e *Engine) admit(j *job) {
	if e.opts.Sink == nil {
		return
	}
	j.Lock()
	sp, submitted := j.Data.spec, j.Life().SubmittedAt
	j.Unlock()
	if err := e.opts.Sink.CampaignStarted(j.ID(), sp, submitted); err != nil {
		e.log.Warn("results sink rejected campaign start",
			slog.String("campaign", j.ID()), slog.String("error", err.Error()))
		return
	}
	j.Lock()
	j.Data.sink = e.opts.Sink
	j.Unlock()
}

// finish seals the campaign's durable log with its terminal snapshot.
func (e *Engine) finish(j *job, _ bool) {
	j.Lock()
	sink := j.Data.sink
	j.Unlock()
	if sink == nil {
		return
	}
	if err := sink.CampaignFinished(j.ID(), snapshot(j, 0, false)); err != nil {
		e.log.Warn("results sink rejected campaign finish",
			slog.String("campaign", j.ID()), slog.String("error", err.Error()))
	}
}

// Get returns a snapshot with per-sample results from offset on, or false
// for an unknown id.
func (e *Engine) Get(id string, offset int) (Snapshot, bool) {
	j, ok := e.rt.Job(id)
	if !ok {
		return Snapshot{}, false
	}
	return snapshot(j, offset, true), true
}

// List returns summary snapshots (no per-sample results) in submission
// order.
func (e *Engine) List() []Snapshot {
	js := e.rt.Jobs()
	out := make([]Snapshot, 0, len(js))
	for _, j := range js {
		out = append(out, snapshot(j, 0, false))
	}
	return out
}

// Cancel requests cancellation and returns the resulting snapshot, or false
// for an unknown id. A queued campaign is marked cancelled immediately; a
// running one stops at its next batch boundary; a terminal one is
// unchanged. Cancel returns as soon as the request is registered — poll Get
// for the terminal state.
func (e *Engine) Cancel(id string) (Snapshot, bool) {
	j, ok := e.rt.Cancel(id)
	if !ok {
		return Snapshot{}, false
	}
	return snapshot(j, 0, false), true
}

// Submitted counts campaigns accepted since the engine started.
func (e *Engine) Submitted() int64 { return e.rt.Submitted() }

// Evicted counts terminal campaigns dropped from in-memory history by the
// MaxHistory cap. With a Sink attached their results remain durably stored
// and queryable; without one they are gone — either way the eviction is
// counted and logged, never silent.
func (e *Engine) Evicted() int64 { return e.rt.Evicted() }

// Close cancels every campaign, stops the workers and waits for them.
// Idempotent; subsequent Submits fail with ErrClosed while Get/List keep
// answering from the final snapshots.
func (e *Engine) Close() { e.rt.Close() }

// execute is the campaign body: resolve crafting model, population and
// target, then craft and judge batch by batch, checking for cancellation
// at every batch boundary.
func (e *Engine) execute(ctx context.Context, j *job) error {
	j.Lock()
	sp, sink := j.Data.spec, j.Data.sink
	j.Unlock()
	craft, err := e.craftModel(sp)
	if err != nil {
		return err
	}
	x, err := e.population(sp, craft.InDim())
	if err != nil {
		return err
	}
	j.Lock()
	j.Data.total = x.Rows
	// The population matrix owns the rows now; dropping the submitted
	// slices keeps a retained terminal job at snapshot size (explicit-rows
	// specs can be tens of megabytes).
	j.Data.spec.Rows = nil
	j.Unlock()

	target, err := e.target(sp)
	if err != nil {
		return err
	}

	batch := sp.BatchSize
	if batch <= 0 {
		batch = e.opts.DefaultBatch
	}
	for start := 0; start < x.Rows; start += batch {
		if err := ctx.Err(); err != nil {
			return err
		}
		end := start + batch
		if end > x.Rows {
			end = x.Rows
		}
		if err := e.runBatch(ctx, j, sp, sink, craft, target, x, start, end); err != nil {
			return err
		}
	}
	return nil
}

// runBatch crafts adversarial examples for rows [start,end) and judges the
// whole batch — originals and adversarials — in one generation-pinned
// target call.
func (e *Engine) runBatch(ctx context.Context, j *job, sp Spec, sink Sink, craft *nn.Network, target Target, x *tensor.Matrix, start, end int) error {
	n := end - start
	bx := tensor.FromSlice(n, x.Cols, x.Data[start*x.Cols:end*x.Cols])

	cfg := sp.Attack
	if !cfg.BatchInvariant() {
		// Seed-stream attacks are re-seeded per batch so every batch is
		// reproducible in isolation (results then depend on BatchSize,
		// which the spec records).
		cfg.Seed += uint64(start)
	}
	atk, err := cfg.Build(craft, nil)
	if err != nil {
		return err
	}
	results := atk.Run(bx)
	adv := attack.AdvMatrix(results)

	// One pinned evaluation judges the batch's originals and adversarials
	// together, so both verdicts of every sample come from one generation.
	combined := tensor.New(2*n, x.Cols)
	copy(combined.Data[:n*x.Cols], bx.Data)
	copy(combined.Data[n*x.Cols:], adv.Data)
	labels, gen, err := e.judge(ctx, j, target, combined)
	if err != nil {
		return err
	}

	batchResults := make([]SampleResult, n)
	for i := 0; i < n; i++ {
		sr := SampleResult{
			Index:            start + i,
			Generation:       gen,
			BaselineDetected: labels[i] == 1,
			Evaded:           labels[n+i] == 0,
			CraftEvaded:      results[i].Evaded,
			L2:               results[i].L2,
			ModifiedFeatures: len(results[i].ModifiedFeatures),
		}
		if sp.KeepRows {
			sr.Adversarial = append([]float64(nil), adv.Row(i)...)
		}
		batchResults[i] = sr
	}

	j.Lock()
	st := &j.Data
	st.batches++
	if !slices.Contains(st.generations, gen) {
		st.generations = append(st.generations, gen)
	}
	for _, sr := range batchResults {
		if sr.BaselineDetected {
			st.detected++
		}
		if sr.Evaded {
			st.evaded++
		}
	}
	st.results = append(st.results, batchResults...)
	j.Unlock()

	// Stream the batch durably outside the job's lock: the fsync must not
	// stall status polls. Only this job's worker calls the sink with
	// samples, so batches arrive in judged order.
	if sink != nil {
		if err := sink.CampaignSamples(j.ID(), batchResults); err != nil {
			e.log.Warn("results sink rejected batch",
				slog.String("campaign", j.ID()), slog.String("error", err.Error()))
		}
	}
	return nil
}

// judge evaluates one batch against the target, retrying transient failures
// (remote blips, mid-batch reloads) up to Options.Retries times.
func (e *Engine) judge(ctx context.Context, j *job, target Target, x *tensor.Matrix) ([]int, int64, error) {
	var lastErr error
	for attempt := 0; attempt <= e.opts.Retries; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		labels, gen, err := target.LabelBatch(ctx, x)
		if err == nil {
			if len(labels) != x.Rows {
				return nil, 0, fmt.Errorf("campaign: target returned %d labels for %d rows", len(labels), x.Rows)
			}
			return labels, gen, nil
		}
		// A cancellation surfaced by the target is the job's own context
		// ending, not a target blip worth a retry.
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, 0, err
		}
		lastErr = err
		j.Lock()
		j.Data.retries++
		j.Unlock()
		select {
		case <-ctx.Done():
			return nil, 0, ctx.Err()
		case <-time.After(time.Duration(attempt+1) * 10 * time.Millisecond):
		}
	}
	return nil, 0, fmt.Errorf("campaign: target evaluation failed after %d retries: %w", e.opts.Retries, lastErr)
}

// craftModel resolves the spec's crafting model.
func (e *Engine) craftModel(spec Spec) (*nn.Network, error) {
	var net *nn.Network
	var err error
	switch {
	case spec.CraftModelPath != "":
		net, err = nn.LoadFile(spec.CraftModelPath)
	case spec.TargetModel != "" && e.opts.NamedCraftModel != nil:
		// White-box on the named registry model's live version.
		net, err = e.opts.NamedCraftModel(spec.TargetModel)
	case e.opts.CraftModel != nil:
		net, err = e.opts.CraftModel()
	default:
		return nil, fmt.Errorf("campaign: spec names no craft_model_path and the engine has no default crafting model")
	}
	if err != nil {
		return nil, fmt.Errorf("campaign: load crafting model: %w", err)
	}
	if net.OutDim() != 2 {
		return nil, fmt.Errorf("campaign: crafting model has %d output classes, want 2", net.OutDim())
	}
	return net, nil
}

// population resolves the spec's attacked rows, capped at the engine and
// spec limits.
func (e *Engine) population(spec Spec, inDim int) (*tensor.Matrix, error) {
	cap := e.opts.MaxSamples
	if spec.MaxSamples > 0 && spec.MaxSamples < cap {
		cap = spec.MaxSamples
	}
	if len(spec.Rows) > 0 {
		if len(spec.Rows[0]) != inDim {
			return nil, fmt.Errorf("campaign: rows have %d features, crafting model expects %d", len(spec.Rows[0]), inDim)
		}
		n := len(spec.Rows)
		if n > cap {
			n = cap
		}
		x := tensor.New(n, inDim)
		for i := 0; i < n; i++ {
			copy(x.Row(i), spec.Rows[i])
		}
		return x, nil
	}
	p, err := experiments.ProfileByName(spec.Profile)
	if err != nil {
		return nil, err
	}
	mal, err := experiments.MalwarePopulation(p)
	if err != nil {
		return nil, err
	}
	if mal.X.Cols != inDim {
		return nil, fmt.Errorf("campaign: profile population has %d features, crafting model expects %d", mal.X.Cols, inDim)
	}
	if mal.X.Rows > cap {
		return tensor.FromSlice(cap, mal.X.Cols, mal.X.Data[:cap*mal.X.Cols]), nil
	}
	return mal.X, nil
}

// target resolves the spec's evasion judge.
func (e *Engine) target(spec Spec) (Target, error) {
	if spec.TargetURL != "" {
		if e.opts.RemoteTarget == nil {
			return nil, fmt.Errorf("campaign: spec names a target_url but the engine has no remote-target factory")
		}
		return e.opts.RemoteTarget(spec.TargetURL)
	}
	if spec.TargetModel != "" {
		if e.opts.NamedTarget == nil {
			return nil, fmt.Errorf("campaign: spec names target_model %q but the engine has no model registry", spec.TargetModel)
		}
		return e.opts.NamedTarget(spec.TargetModel)
	}
	if e.opts.LocalTarget == nil {
		return nil, fmt.Errorf("campaign: spec names no target_url and the engine has no local target")
	}
	return e.opts.LocalTarget, nil
}

// snapshot copies the job state. offset windows the per-sample results
// when includeResults is set; Spec.Rows is always elided (TotalSamples
// carries the population size, and explicit rows can be megabytes).
func snapshot(j *job, offset int, includeResults bool) Snapshot {
	j.Lock()
	defer j.Unlock()
	life, st := j.Life(), &j.Data
	s := Snapshot{
		ID:           life.ID,
		Spec:         st.spec,
		Status:       life.Status,
		Error:        life.Error,
		SubmittedAt:  life.SubmittedAt,
		StartedAt:    life.StartedAt,
		FinishedAt:   life.FinishedAt,
		TotalSamples: st.total,
		DoneSamples:  len(st.results),
		Batches:      st.batches,
		Retries:      st.retries,
		Generations:  slices.Clone(st.generations),
	}
	s.Spec.Rows = nil
	if n := len(st.results); n > 0 {
		s.BaselineDetectionRate = float64(st.detected) / float64(n)
		s.EvasionRate = float64(st.evaded) / float64(n)
	}
	if includeResults {
		offset = min(max(offset, 0), len(st.results))
		s.ResultsOffset = offset
		s.Results = append([]SampleResult(nil), st.results[offset:]...)
	}
	return s
}
