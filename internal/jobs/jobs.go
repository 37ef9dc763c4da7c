// Package jobs is the one job runtime behind malevade's server-side jobs:
// evasion campaigns (internal/campaign), hardening (internal/harden) and
// traffic mining (internal/store). It owns everything the kinds share — a
// bounded queue drained by a fixed worker pool, the <k>%06d id sequence, a
// context per job, the queued → running → terminal transitions and their
// timestamps, a bounded history that evicts the oldest terminal jobs,
// Cancel and Close, the submitted and evicted counts, and the per-kind
// terminal metrics malevade_<kind>_jobs_total{status} and
// malevade_<kind>_seconds. A kind supplies its job body, the payload its
// snapshots render from, and hooks for its side effects; the runtime calls
// the body and every hook with no lock held.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"malevade/internal/campaign/spec"
	"malevade/internal/obs"
)

// Submission errors. Each kind re-exports them under its own names, so
// errors.Is matches either spelling.
var (
	// ErrQueueFull rejects a Submit while QueueDepth submitted jobs are
	// waiting for a worker.
	ErrQueueFull = errors.New("jobs: queue is full")
	// ErrClosed rejects a Submit after Close. It is also the cause of the
	// job contexts Close cancels.
	ErrClosed = errors.New("jobs: closed")
)

// SecondsBuckets are the job-duration histogram bounds: 10ms (a tiny
// smoke-test campaign) through 10 minutes (a full hardening round).
var SecondsBuckets = []float64{
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300, 600,
}

// Life is the lifecycle the runtime advances for every job, which each
// kind's snapshot reports beside its own progress.
type Life struct {
	ID          string
	Status      spec.Status
	Error       string
	SubmittedAt time.Time
	StartedAt   time.Time
	FinishedAt  time.Time
}

// Job is one job: its id, context and lifecycle, owned by the runtime, and
// Data, the kind's payload. The embedded mutex guards Data and the
// lifecycle; the runtime holds it only to read or advance the lifecycle.
type Job[T any] struct {
	sync.Mutex
	// Data is the kind's spec and progress. Read and write it under the
	// job's lock.
	Data T

	id      string
	ctx     context.Context
	cancel  context.CancelCauseFunc
	resumed bool // restored from durable state; never counts as waiting
	life    Life
}

// ID returns the job's id.
func (j *Job[T]) ID() string { return j.id }

// Life returns the job's lifecycle. The caller holds the job's lock.
func (j *Job[T]) Life() Life { return j.life }

// Config describes one job kind to its runtime.
type Config[T any] struct {
	// Kind names the jobs: ids are Kind's first letter and a six-digit
	// sequence number, metrics are malevade_<Kind>_jobs_total and
	// malevade_<Kind>_seconds, and log events read "<Kind> job …".
	Kind string
	// Workers is the number of bodies that run at once.
	Workers int
	// QueueDepth bounds submitted jobs waiting for a worker.
	QueueDepth int
	// MaxHistory bounds retained jobs; past it, each Submit evicts the
	// oldest terminal ones. Live jobs are never evicted.
	MaxHistory int
	// BaseSeq seeds the id sequence: the first Submit gets BaseSeq+1.
	BaseSeq int64
	// Resumable marks a kind whose jobs outlive the process. A job Close
	// interrupts reads cancelled in memory but is not counted terminal:
	// its durable state stays resumable.
	Resumable bool
	// Logger receives one event per transition; nil discards them.
	Logger *slog.Logger
	// Obs, when set, receives the kind's terminal metrics.
	Obs *obs.Registry

	// Run is the job body. It returns at its next checkpoint once ctx is
	// cancelled: nil is done, an error wrapping context.Canceled is
	// cancelled, anything else (a panic included) is failed.
	Run func(ctx context.Context, j *Job[T]) error
	// Admit, when set, runs once per submitted job after its id is
	// assigned and before any worker can start it.
	Admit func(j *Job[T])
	// Finish, when set, runs once per job right after its terminal status
	// is published; interrupted reports that Close, not Cancel or the
	// body, ended the job.
	Finish func(j *Job[T], interrupted bool)
	// Evict, when set, runs for each terminal job dropped from history.
	Evict func(j *Job[T])
}

// Runtime runs one kind's jobs. Create it with New and Close it when done;
// all methods are safe for concurrent use.
type Runtime[T any] struct {
	cfg      Config[T]
	log      *slog.Logger
	finished *obs.CounterVec // nil without Config.Obs
	seconds  *obs.Histogram  // nil without Config.Obs

	mu      sync.Mutex
	wake    *sync.Cond // a job is pending, or the runtime closed
	jobs    map[string]*Job[T]
	order   []*Job[T] // retained jobs in submission order
	pending []*Job[T] // queued jobs in start order
	waiting int       // submitted jobs queued or being admitted
	seq     int64
	closed  bool

	admitting sync.WaitGroup // Submits between id assignment and queueing
	workers   sync.WaitGroup

	submitted atomic.Int64
	evicted   atomic.Int64
}

// New starts a runtime with cfg.Workers workers. The caller resolves every
// default; Workers, QueueDepth and MaxHistory must be positive.
func New[T any](cfg Config[T]) *Runtime[T] {
	r := &Runtime[T]{cfg: cfg, log: obs.Or(cfg.Logger), jobs: make(map[string]*Job[T]), seq: cfg.BaseSeq}
	r.wake = sync.NewCond(&r.mu)
	if cfg.Obs != nil {
		r.finished = cfg.Obs.CounterVec("malevade_"+cfg.Kind+"_jobs_total",
			"Jobs of kind "+cfg.Kind+" reaching a terminal status.", "status")
		r.seconds = cfg.Obs.Histogram("malevade_"+cfg.Kind+"_seconds",
			"Wall-clock duration of "+cfg.Kind+" jobs from start to terminal, in seconds.",
			SecondsBuckets)
	}
	r.workers.Add(cfg.Workers)
	for range cfg.Workers {
		go r.work()
	}
	return r
}

// Submit queues a job carrying data and returns it. It never waits for a
// worker: it fails with ErrQueueFull while QueueDepth submitted jobs are
// waiting, and with ErrClosed after Close. A rejected Submit consumes no id.
func (r *Runtime[T]) Submit(data T) (*Job[T], error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrClosed
	}
	if r.waiting >= r.cfg.QueueDepth {
		r.mu.Unlock()
		return nil, ErrQueueFull
	}
	r.seq++
	r.waiting++
	r.admitting.Add(1)
	defer r.admitting.Done()
	j := newJob(fmt.Sprintf("%c%06d", r.cfg.Kind[0], r.seq), data,
		Life{Status: spec.StatusQueued, SubmittedAt: time.Now()})
	r.mu.Unlock()

	if r.cfg.Admit != nil {
		r.cfg.Admit(j)
	}
	r.mu.Lock()
	// Close waits for admissions before it drains the queue, so a job
	// admitted across a Close is still cancelled with the rest.
	r.jobs[j.id] = j
	r.order = append(r.order, j)
	r.pending = append(r.pending, j)
	r.wake.Signal()
	evicted := r.evictLocked()
	r.mu.Unlock()
	r.submitted.Add(1)
	r.log.Info(r.cfg.Kind+" job queued", slog.String("job", j.id))
	for _, e := range evicted {
		r.evicted.Add(1)
		r.log.Info(r.cfg.Kind+" job evicted from history", slog.String("job", e.id))
		if r.cfg.Evict != nil {
			r.cfg.Evict(e)
		}
	}
	return j, nil
}

// Restore adds a job recovered from durable state under its recorded
// lifecycle: a terminal one as history, any other queued to run again.
// Restored jobs never count against QueueDepth, and nothing is admitted or
// counted for them. Call it before the first Submit.
func (r *Runtime[T]) Restore(life Life, data T) {
	j := newJob(life.ID, data, life)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.jobs[j.id] = j
	r.order = append(r.order, j)
	if !life.Status.Terminal() {
		j.life.Status = spec.StatusQueued
		j.resumed = true
		r.pending = append(r.pending, j)
		r.wake.Signal()
	}
}

func newJob[T any](id string, data T, life Life) *Job[T] {
	ctx, cancel := context.WithCancelCause(context.Background())
	life.ID = id
	return &Job[T]{Data: data, id: id, ctx: ctx, cancel: cancel, life: life}
}

// Job returns the retained job with the given id.
func (r *Runtime[T]) Job(id string) (*Job[T], bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	return j, ok
}

// Jobs returns the retained jobs in submission order.
func (r *Runtime[T]) Jobs() []*Job[T] {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.order)
}

// Cancel cancels a job and returns it, or false for an unknown id. A
// queued job is cancelled before Cancel returns and its body never runs;
// a running job's context is cancelled and its body returns at its next
// checkpoint; a terminal job is unchanged.
func (r *Runtime[T]) Cancel(id string) (*Job[T], bool) {
	r.mu.Lock()
	j, ok := r.jobs[id]
	queued := ok && r.dequeueLocked(j)
	r.mu.Unlock()
	if !ok {
		return nil, false
	}
	j.cancel(context.Canceled)
	if queued {
		r.end(j, context.Canceled)
	}
	r.log.Info(r.cfg.Kind+" job cancel requested", slog.String("job", id))
	return j, true
}

// dequeueLocked removes j from the queue and reports whether it was
// there. Callers hold r.mu.
func (r *Runtime[T]) dequeueLocked(j *Job[T]) bool {
	i := slices.Index(r.pending, j)
	if i < 0 {
		return false
	}
	r.pending = slices.Delete(r.pending, i, i+1)
	if !j.resumed {
		r.waiting--
	}
	return true
}

// Submitted counts jobs accepted by Submit since New (restored jobs
// excluded).
func (r *Runtime[T]) Submitted() int64 { return r.submitted.Load() }

// Evicted counts terminal jobs dropped from history by MaxHistory.
func (r *Runtime[T]) Evicted() int64 { return r.evicted.Load() }

// evictLocked drops the oldest terminal jobs beyond MaxHistory in one pass
// and returns them. Live jobs are never evicted, so the history can
// briefly exceed the cap while everything retained is live. Callers hold
// r.mu.
func (r *Runtime[T]) evictLocked() []*Job[T] {
	excess := len(r.order) - r.cfg.MaxHistory
	if excess <= 0 {
		return nil
	}
	var evicted []*Job[T]
	kept := r.order[:0]
	for _, j := range r.order {
		j.Lock()
		terminal := j.life.Status.Terminal()
		j.Unlock()
		if len(evicted) < excess && terminal {
			delete(r.jobs, j.id)
			evicted = append(evicted, j)
			continue
		}
		kept = append(kept, j)
	}
	clear(r.order[len(kept):])
	r.order = kept
	return evicted
}

// Close cancels every queued and running job, waits for the workers to
// exit and makes later Submits fail with ErrClosed. Retained jobs stay
// readable. Idempotent.
func (r *Runtime[T]) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.wake.Broadcast()
	r.mu.Unlock()
	r.admitting.Wait()

	r.mu.Lock()
	queued := r.pending
	r.pending = nil
	r.waiting = 0
	all := slices.Clone(r.order)
	r.mu.Unlock()
	for _, j := range all {
		j.cancel(ErrClosed)
	}
	for _, j := range queued {
		r.end(j, context.Canceled)
	}
	r.workers.Wait()
}

// work runs queued jobs until Close.
func (r *Runtime[T]) work() {
	defer r.workers.Done()
	for {
		r.mu.Lock()
		for len(r.pending) == 0 && !r.closed {
			r.wake.Wait()
		}
		if r.closed {
			r.mu.Unlock()
			return
		}
		j := r.pending[0]
		r.dequeueLocked(j)
		j.Lock()
		j.life.Status = spec.StatusRunning
		if j.life.StartedAt.IsZero() {
			j.life.StartedAt = time.Now()
		}
		j.Unlock()
		r.mu.Unlock()
		r.log.Info(r.cfg.Kind+" job running", slog.String("job", j.id))
		r.end(j, r.run(j))
	}
}

// Interrupted reports whether err ends a job because Close cancelled its
// context: a shutdown, not a Cancel or a failure.
func Interrupted(ctx context.Context, err error) bool {
	return errors.Is(err, context.Canceled) && errors.Is(context.Cause(ctx), ErrClosed)
}

// run calls the body, turning a panic (a width mismatch deep in an attack
// on a hostile spec, say) into a job failure instead of a dead worker.
func (r *Runtime[T]) run(j *Job[T]) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%s: job panicked: %v", r.cfg.Kind, p)
		}
	}()
	return r.cfg.Run(j.ctx, j)
}

// end publishes j's terminal status from its body's result, counts it and
// runs the Finish hook. Every job that leaves the queue passes through it
// exactly once: from its worker, or from the Cancel or Close that took it
// off the queue.
func (r *Runtime[T]) end(j *Job[T], err error) {
	interrupted := Interrupted(j.ctx, err)
	j.Lock()
	switch {
	case err == nil:
		j.life.Status = spec.StatusDone
	case errors.Is(err, context.Canceled):
		j.life.Status, j.life.Error = spec.StatusCancelled, "cancelled"
	default:
		j.life.Status, j.life.Error = spec.StatusFailed, err.Error()
	}
	j.life.FinishedAt = time.Now()
	life := j.life
	j.Unlock()
	j.cancel(context.Canceled) // release the context

	var elapsed time.Duration
	if !life.StartedAt.IsZero() {
		elapsed = life.FinishedAt.Sub(life.StartedAt)
	}
	if r.finished != nil && !(interrupted && r.cfg.Resumable) {
		r.finished.With(string(life.Status)).Inc()
		if !life.StartedAt.IsZero() {
			r.seconds.Observe(elapsed.Seconds())
		}
	}
	r.log.Info(r.cfg.Kind+" job finished",
		slog.String("job", j.id),
		slog.String("status", string(life.Status)),
		slog.String("error", life.Error),
		slog.Bool("interrupted", interrupted),
		slog.Duration("elapsed", elapsed))
	if r.cfg.Finish != nil {
		r.cfg.Finish(j, interrupted)
	}
}
