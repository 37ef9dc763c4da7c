// Package registry is the disk-backed model registry: a durable store of
// named detector models, each with an append-only version history, a JSON
// manifest (name, version, generation, optional defense chain, checksum)
// and atomic promotion of one version to "live" behind the same
// refcounted-drain machinery the HTTP daemon's hot-reload uses — a request
// pinned to an instance is never torn by a promotion, and the displaced
// engine drains before it closes.
//
// The registry is the multi-detector layer of the daemon (the paper's
// evaluation is inherently multi-model: target vs. substitute detectors,
// hardened variants per defense), so one process can serve, compare and
// campaign against many named detectors instead of one anonymous slot:
//
//	reg, _ := registry.Open(registry.Options{Dir: "models"})
//	reg.Register(registry.RegisterRequest{Name: "target", Path: "target.gob"})
//	inst, _ := reg.Acquire("target")
//	defer inst.Release()
//	logits := inst.Scorer.Logits(x)
//
// Disk layout: one directory per model under Options.Dir, holding
// manifest.json plus one immutable v%06d.gob file per retained version.
// Manifests persist atomically (temp file + rename), model files are
// checksummed on write and verified on every load, and Open rebuilds the
// exact serving state — names, live versions, generations — after a
// restart.
package registry

import (
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"malevade/internal/defense"
	"malevade/internal/nn"
	"malevade/internal/obs"
	"malevade/internal/serve"
)

// Registry capacity and lookup errors. API layers map these onto the wire
// taxonomy (unknown_model, version_conflict, registry_full).
var (
	// ErrUnknownModel rejects operations addressing a name the registry
	// does not hold.
	ErrUnknownModel = errors.New("registry: unknown model")
	// ErrVersionConflict rejects a promotion of a version that does not
	// exist (or was GCed), and serving a model with no live version.
	ErrVersionConflict = errors.New("registry: version conflict")
	// ErrFull rejects a registration past MaxModels or MaxVersions.
	ErrFull = errors.New("registry: registry full")
	// ErrClosed rejects operations on a closed registry.
	ErrClosed = errors.New("registry: closed")
)

// Options configures a Registry. Dir is required; everything else has
// defaults.
type Options struct {
	// Dir is the registry root directory (created if missing).
	Dir string
	// Temperature is the softmax temperature instances serve with
	// (0 means 1).
	Temperature float64
	// Scorer configures each instance's scoring engine.
	Scorer serve.Options
	// MaxModels caps the number of named models (default 64).
	MaxModels int
	// MaxVersions caps each model's retained history (default 32); GC
	// unpinned old versions to make room.
	MaxVersions int
	// Gen, when non-nil, is a shared generation counter (the HTTP daemon
	// passes its own so default-slot reloads and registry promotions draw
	// from one monotonic sequence). Open raises it to at least the largest
	// generation persisted in the manifests.
	Gen *atomic.Int64
	// Logger, when set, receives lifecycle events — models recovered on
	// Open, registrations, promotions, deletions, GC — with structured
	// fields. Nil discards them.
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.MaxModels <= 0 {
		o.MaxModels = 64
	}
	if o.MaxVersions <= 0 {
		o.MaxVersions = 32
	}
	return o
}

// model is one named entry: its manifest (guarded by the registry mutex),
// its live slot and its served-request counter.
type model struct {
	name     string
	manifest Manifest
	slot     Slot
	requests atomic.Int64
}

// Registry is the disk-backed named-model store. All methods are safe for
// concurrent use: mutations (Register, Promote, Delete, GC) serialize on
// opMu — held across their disk I/O — while the scoring path (Acquire,
// Get, List) only ever takes the short map mutex, so a slow registration
// never stalls model-addressed requests.
type Registry struct {
	opts Options
	gen  *atomic.Int64
	log  *slog.Logger

	promotions atomic.Int64 // live-version swaps (Promote + promoting Registers)

	// opMu serializes mutations, including their file copies, hashing and
	// model loads. Lock order: opMu before mu, never the reverse.
	opMu sync.Mutex
	// mu guards the models map, the closed flag and each model's manifest
	// pointer; held only for map/manifest access, never across I/O.
	mu     sync.Mutex
	models map[string]*model
	closed bool
}

// Open loads (or initializes) the registry rooted at opts.Dir, rebuilding
// every model's live instance from its manifest. A manifest that fails to
// decode, a missing model file or a checksum mismatch fails Open — a
// half-corrupt registry never serves silently.
func Open(opts Options) (*Registry, error) {
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, fmt.Errorf("registry: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("registry: create %s: %w", opts.Dir, err)
	}
	r := &Registry{opts: opts, gen: opts.Gen, log: obs.Or(opts.Logger), models: make(map[string]*model)}
	if r.gen == nil {
		r.gen = new(atomic.Int64)
	}
	entries, err := os.ReadDir(opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("registry: read %s: %w", opts.Dir, err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		dir := filepath.Join(opts.Dir, name)
		if _, err := os.Stat(filepath.Join(dir, manifestFile)); err != nil {
			continue // not a model directory
		}
		man, err := readManifest(dir)
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("registry: model %s: %w", name, err)
		}
		if man.Name != name {
			r.Close()
			return nil, fmt.Errorf("registry: model directory %s holds manifest for %q", name, man.Name)
		}
		m := &model{name: name, manifest: man}
		if man.Live > 0 {
			vi, ok := man.version(man.Live)
			if !ok {
				r.Close()
				return nil, fmt.Errorf("registry: model %s: live version %d missing", name, man.Live)
			}
			inst, err := r.buildVersion(m, *vi, vi.Generation, true)
			if err != nil {
				r.Close()
				return nil, err
			}
			m.slot.Store(inst)
		}
		if g := man.maxGeneration(); g > 0 {
			raiseAtLeast(r.gen, g)
		}
		r.models[name] = m
		r.log.Info("registry model recovered",
			slog.String("model", name),
			slog.Int("live_version", man.Live),
			slog.Int("versions", len(man.Versions)))
	}
	r.log.Info("registry opened",
		slog.String("dir", opts.Dir),
		slog.Int("models", len(r.models)),
		slog.Int64("generation", r.gen.Load()))
	return r, nil
}

// raiseAtLeast lifts a monotonic counter to at least v.
func raiseAtLeast(c *atomic.Int64, v int64) {
	for {
		cur := c.Load()
		if cur >= v || c.CompareAndSwap(cur, v) {
			return
		}
	}
}

// buildVersion assembles an instance for one manifest entry. With verify
// set, the stored file is checked against its recorded checksum first
// (Open and Promote verify; Register skips it — the copy that just wrote
// the file computed the sum).
func (r *Registry) buildVersion(m *model, vi VersionInfo, gen int64, verify bool) (*Instance, error) {
	path := filepath.Join(r.opts.Dir, m.name, vi.File)
	if verify {
		sum, err := fileSHA256(path)
		if err != nil {
			return nil, fmt.Errorf("registry: model %s version %d: %w", m.name, vi.Version, err)
		}
		if sum != vi.SHA256 {
			return nil, fmt.Errorf("registry: model %s version %d: checksum mismatch (manifest %s, file %s)",
				m.name, vi.Version, vi.SHA256, sum)
		}
	}
	inst, err := BuildInstance(InstanceConfig{
		Path:        path,
		Name:        m.name,
		Version:     vi.Version,
		Generation:  gen,
		Temperature: r.opts.Temperature,
		Scorer:      r.opts.Scorer,
		Defenses:    vi.Defenses,
	})
	if err != nil {
		return nil, fmt.Errorf("registry: model %s version %d: %w", m.name, vi.Version, err)
	}
	inst.requests = &m.requests
	return inst, nil
}

// RegisterRequest describes one registration: copy the model file at Path
// into the store as a new version of Name.
type RegisterRequest struct {
	// Name is the model to append to (created when new).
	Name string
	// Path is the nn.SaveFile model file to ingest.
	Path string
	// Defenses, when non-empty, is the servable defense chain the version
	// is wrapped in whenever it is live.
	Defenses defense.Chain
	// Promote makes the new version live immediately. A model's first
	// version is always promoted (a model with no live version serves
	// nothing).
	Promote bool
	// Pin protects the version from GC even after it stops being live.
	Pin bool
}

// Register ingests a model file as a new version: validate, copy with
// checksum, append to the manifest, persist, and (when promoting) swap the
// live instance and drain the old one. The version history is append-only
// — numbers are never reused, even after GC.
func (r *Registry) Register(req RegisterRequest) (Info, error) {
	if err := ValidateName(req.Name); err != nil {
		return Info{}, err
	}
	if len(req.Defenses) > 0 {
		if err := req.Defenses.ValidateServable(); err != nil {
			return Info{}, fmt.Errorf("registry: %w", err)
		}
	}
	r.opMu.Lock()
	defer r.opMu.Unlock()
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return Info{}, ErrClosed
	}
	m, exists := r.models[req.Name]
	if !exists && len(r.models) >= r.opts.MaxModels {
		n := len(r.models)
		r.mu.Unlock()
		return Info{}, fmt.Errorf("%w: %d models at capacity %d", ErrFull, n, r.opts.MaxModels)
	}
	r.mu.Unlock()
	if !exists {
		m = &model{name: req.Name, manifest: Manifest{
			Format:      ManifestFormat,
			Name:        req.Name,
			NextVersion: 1,
		}}
	}
	// From here on only opMu is held: manifests are only mutated under
	// opMu, so reading m.manifest is safe, and the scoring path's map
	// lookups stay unblocked through the disk I/O below.
	if len(m.manifest.Versions) >= r.opts.MaxVersions {
		return Info{}, fmt.Errorf("%w: model %q holds %d versions at capacity %d (gc or delete first)",
			ErrFull, req.Name, len(m.manifest.Versions), r.opts.MaxVersions)
	}

	dir := filepath.Join(r.opts.Dir, req.Name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Info{}, fmt.Errorf("registry: create %s: %w", dir, err)
	}
	next := m.manifest.NextVersion
	file := fmt.Sprintf("v%06d.gob", next)
	sum, err := copyFile(req.Path, dir, file)
	if err != nil {
		return Info{}, err
	}

	man := m.manifest.clone()
	vi := VersionInfo{
		Version:   next,
		File:      file,
		SHA256:    sum,
		CreatedAt: time.Now().UTC(),
		Pinned:    req.Pin,
		Defenses:  append(defense.Chain(nil), req.Defenses...),
	}
	promote := req.Promote || man.Live == 0

	var inst *Instance
	if promote {
		gen := r.gen.Add(1)
		inst, err = r.buildVersion(m, vi, gen, false)
		if err != nil {
			os.Remove(filepath.Join(dir, file))
			return Info{}, err
		}
		vi.Generation = gen
		man.Live = next
	}
	man.Versions = append(man.Versions, vi)
	man.NextVersion = next + 1
	if err := writeManifest(dir, man); err != nil {
		if inst != nil {
			inst.Retire()
		}
		os.Remove(filepath.Join(dir, file))
		return Info{}, err
	}

	// Commit: manifest pointer and map entry change under the short map
	// mutex so readers always see a consistent pair. A Close that landed
	// during the I/O wins — back the registration out instead of leaking
	// a live instance into a closed registry.
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		if inst != nil {
			inst.Retire()
		}
		return Info{}, ErrClosed
	}
	m.manifest = man
	r.models[req.Name] = m
	var old *Instance
	if inst != nil {
		old = m.slot.Swap(inst)
	}
	info := r.infoLocked(m)
	r.mu.Unlock()
	// Retire outside the map mutex: draining blocks on in-flight
	// requests, and the swap handed us exclusive ownership.
	if old != nil {
		old.Retire()
	}
	if promote {
		r.promotions.Add(1)
	}
	r.log.Info("model registered",
		slog.String("model", req.Name),
		slog.Int("version", next),
		slog.Bool("promoted", promote),
		slog.Int64("generation", vi.Generation),
		slog.String("sha256", sum))
	return info, nil
}

// Promote makes an already-registered version live, assigning it a fresh
// serving generation (re-promoting the live version is allowed and still
// advances the generation — the disk artifact is reloaded, exactly like
// the default slot's /v1/reload). The displaced instance drains before its
// engine closes; in-flight requests finish on the generation they started.
func (r *Registry) Promote(name string, version int) (Info, error) {
	r.opMu.Lock()
	defer r.opMu.Unlock()
	m, err := r.lookup(name)
	if err != nil {
		return Info{}, err
	}
	vi, ok := m.manifest.version(version)
	if !ok {
		return Info{}, fmt.Errorf("%w: model %q has no version %d", ErrVersionConflict, name, version)
	}
	gen := r.gen.Add(1)
	inst, err := r.buildVersion(m, *vi, gen, true)
	if err != nil {
		return Info{}, err
	}
	man := m.manifest.clone()
	lv, _ := man.version(version)
	lv.Generation = gen
	man.Live = version
	if err := writeManifest(filepath.Join(r.opts.Dir, name), man); err != nil {
		inst.Retire()
		return Info{}, err
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		inst.Retire()
		return Info{}, ErrClosed
	}
	m.manifest = man
	old := m.slot.Swap(inst)
	info := r.infoLocked(m)
	r.mu.Unlock()
	if old != nil {
		old.Retire()
	}
	r.promotions.Add(1)
	r.log.Info("model promoted",
		slog.String("model", name),
		slog.Int("version", version),
		slog.Int64("generation", gen))
	return info, nil
}

// lookup finds a model under the map mutex, refusing on a closed
// registry. Callers that read or mutate the manifest must hold opMu.
func (r *Registry) lookup(name string) (*model, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrClosed
	}
	m, ok := r.models[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	return m, nil
}

// Delete removes a model entirely: the live instance drains and closes,
// and the model directory (manifest and every version file) is deleted.
func (r *Registry) Delete(name string) error {
	r.opMu.Lock()
	defer r.opMu.Unlock()
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	m, ok := r.models[name]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	delete(r.models, name)
	old := m.slot.Swap(nil)
	r.mu.Unlock()
	// The directory is removed while opMu is still held, so a concurrent
	// Register of the same name cannot recreate it mid-removal; the drain
	// can wait until the disk state is settled (instances hold the model
	// in memory, not the file).
	err := os.RemoveAll(filepath.Join(r.opts.Dir, name))
	if old != nil {
		old.Retire()
	}
	if err != nil {
		return fmt.Errorf("registry: delete %s: %w", name, err)
	}
	r.log.Info("model deleted", slog.String("model", name))
	return nil
}

// GC drops a model's unpinned, non-live versions — manifest entries and
// files both — and reports how many were removed. Version numbering stays
// append-only: NextVersion is untouched, so a GCed number is never reused.
func (r *Registry) GC(name string) (Info, int, error) {
	r.opMu.Lock()
	defer r.opMu.Unlock()
	m, err := r.lookup(name)
	if err != nil {
		return Info{}, 0, err
	}
	man := m.manifest.clone()
	kept := man.Versions[:0]
	var doomed []string
	for _, v := range man.Versions {
		if v.Version == man.Live || v.Pinned {
			kept = append(kept, v)
			continue
		}
		doomed = append(doomed, v.File)
	}
	if len(doomed) == 0 {
		return r.info(m), 0, nil
	}
	man.Versions = kept
	dir := filepath.Join(r.opts.Dir, name)
	if err := writeManifest(dir, man); err != nil {
		return Info{}, 0, err
	}
	r.mu.Lock()
	m.manifest = man
	info := r.infoLocked(m)
	r.mu.Unlock()
	for _, file := range doomed {
		os.Remove(filepath.Join(dir, file))
	}
	return info, len(doomed), nil
}

// info renders a model's Info, taking the map mutex itself.
func (r *Registry) info(m *model) Info {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.infoLocked(m)
}

// Acquire pins the named model's live instance for the duration of one
// request; callers must Release it. Unknown names and models with no live
// version are errors an API layer maps to 404 unknown_model and 409
// version_conflict.
func (r *Registry) Acquire(name string) (*Instance, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrClosed
	}
	m, ok := r.models[name]
	r.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	inst := m.slot.Acquire()
	if inst == nil {
		return nil, fmt.Errorf("%w: model %q has no live version", ErrVersionConflict, name)
	}
	return inst, nil
}

// LoadLive returns the named model's live network — the crafting model
// for campaigns that attack a registered detector white-box. It is the
// live instance's own network, shared with its scoring engine (crafting
// only reads the weights), so no file is read. Unknown names are
// ErrUnknownModel; a model with no live version is ErrVersionConflict.
func (r *Registry) LoadLive(name string) (*nn.Network, error) {
	inst, err := r.Acquire(name)
	if err != nil {
		return nil, err
	}
	defer inst.Release()
	return inst.Net, nil
}

// LoadVersion loads a private copy of one specific retained version of the
// named model (0 = the live version), returning the network and the
// version actually loaded — the deterministic-replay path: re-score a
// stored perturbation against any model version still in the registry.
// Unknown names are ErrUnknownModel; a version not retained (or no live
// version when 0 was asked) is ErrVersionConflict.
func (r *Registry) LoadVersion(name string, version int) (*nn.Network, int, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, 0, ErrClosed
	}
	m, ok := r.models[name]
	var path string
	if ok {
		if version == 0 {
			version = m.manifest.Live
		}
		if vi, have := m.manifest.version(version); have {
			path = filepath.Join(r.opts.Dir, name, vi.File)
		}
	}
	r.mu.Unlock()
	if !ok {
		return nil, 0, fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	if path == "" {
		return nil, 0, fmt.Errorf("%w: model %q does not retain version %d", ErrVersionConflict, name, version)
	}
	net, err := nn.LoadFile(path)
	if err != nil {
		return nil, 0, err
	}
	return net, version, nil
}

// Info is one model's public state: identity, live pointer and retained
// history, as served by GET /v1/models.
type Info struct {
	// Name is the model name.
	Name string `json:"name"`
	// Live is the live version number (0 = none).
	Live int `json:"live_version"`
	// Generation is the live instance's serving generation.
	Generation int64 `json:"generation,omitempty"`
	// InDim is the live model's feature width.
	InDim int `json:"in_dim,omitempty"`
	// Defenses names the live version's defense chain, in order.
	Defenses []string `json:"defenses,omitempty"`
	// Requests counts model-addressed scoring/label requests served.
	Requests int64 `json:"requests"`
	// Versions is the retained append-only history.
	Versions []VersionInfo `json:"versions"`
}

// infoLocked renders a model's Info. Callers hold r.mu.
func (r *Registry) infoLocked(m *model) Info {
	man := m.manifest.clone()
	info := Info{
		Name:     m.name,
		Live:     man.Live,
		Requests: m.requests.Load(),
		Versions: man.Versions,
	}
	if vi, ok := man.version(man.Live); ok {
		info.Generation = vi.Generation
		info.Defenses = vi.Defenses.Names()
	}
	if inst := m.slot.Load(); inst != nil {
		info.InDim = inst.Scorer.InDim()
	}
	return info
}

// Get reports one model's state.
func (r *Registry) Get(name string) (Info, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return Info{}, ErrClosed
	}
	m, ok := r.models[name]
	if !ok {
		return Info{}, fmt.Errorf("%w: %q", ErrUnknownModel, name)
	}
	return r.infoLocked(m), nil
}

// List reports every model's state, sorted by name.
func (r *Registry) List() []Info {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Info, 0, len(r.models))
	for _, m := range r.models {
		out = append(out, r.infoLocked(m))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// RequestCounts reports the per-model served-request counters, for the
// daemon's /v1/stats.
func (r *Registry) RequestCounts() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.models))
	for name, m := range r.models {
		out[name] = m.requests.Load()
	}
	return out
}

// Promotions counts live-version swaps over the registry's lifetime —
// explicit Promote calls plus Registers that promoted. Feeds the
// malevade_registry_promotions_total metric.
func (r *Registry) Promotions() int64 { return r.promotions.Load() }

// EngineLoad sums queue depth and in-flight requests across every live
// model instance's scoring engine — the registry side of the daemon's
// saturation gauges (the default slot's engine is added by the server).
func (r *Registry) EngineLoad() (queue, inflight int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, m := range r.models {
		if inst := m.slot.Load(); inst != nil {
			queue += int64(inst.Scorer.QueueDepth())
			inflight += inst.Scorer.InFlight()
		}
	}
	return queue, inflight
}

// Len reports how many models the registry holds.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.models)
}

// Names reports the registered model names, sorted — the lightweight
// listing health payloads embed so routing tiers learn a replica's
// models without paying for full version histories.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.models))
	for name := range r.models {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Close retires every live instance (draining in-flight holders) and
// rejects further operations. The on-disk store is untouched — a
// subsequent Open resumes exactly this serving state. Idempotent.
func (r *Registry) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	var olds []*Instance
	for _, m := range r.models {
		if old := m.slot.Swap(nil); old != nil {
			olds = append(olds, old)
		}
	}
	r.mu.Unlock()
	for _, old := range olds {
		old.Retire()
	}
}
