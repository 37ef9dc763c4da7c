// Package server exposes the concurrent batched scoring engine as a JSON
// HTTP daemon — the paper's deployed-detector setting (conf_dsn_HuangVFIKW19
// §III), where adversaries probe a production malware classifier as a
// black-box oracle over the network.
//
// Endpoints:
//
//	POST /v1/score   batch feature vectors → per-row malware probability
//	                 and predicted class
//	POST /v1/label   oracle-style hard labels (the black-box attack surface)
//	POST /v1/reload  hot-reload the model from disk
//	GET  /healthz    liveness + current model version
//	GET  /v1/stats   batch/row/request counters
//
// plus the asynchronous attack-campaign API (see campaigns.go):
//
//	POST   /v1/campaigns       submit an evasion campaign
//	GET    /v1/campaigns       list campaigns
//	GET    /v1/campaigns/{id}  status + incremental per-sample results
//	DELETE /v1/campaigns/{id}  cancel
//
// and, when a registry is configured, the closed-loop hardening API
// (see harden.go):
//
//	POST   /v1/harden       submit a hardening job
//	GET    /v1/harden       list jobs
//	GET    /v1/harden/{id}  status + per-round metrics
//	DELETE /v1/harden/{id}  cancel
//
// and the durable results store + historical attack mining API
// (see results.go), persisted under RegistryDir/.results:
//
//	GET    /v1/results              stored campaigns + store counters
//	GET    /v1/results/{id}         per-sample results, paginated/filtered
//	GET    /v1/results/traffic      recorded live traffic (serve -record)
//	POST   /v1/results/{id}/replay  re-score a stored perturbation
//	POST   /v1/mine                 sweep recorded traffic for evasions
//	GET    /v1/mine                 list sweeps
//	GET    /v1/mine/{id}            ranked findings
//	DELETE /v1/mine/{id}            cancel a queued sweep
//
// docs/http-api.md is the full wire reference.
//
// The model behind the endpoints hot-reloads atomically: a reload (SIGHUP in
// the CLI, or POST /v1/reload) loads the new network from disk, swaps it in
// behind an atomic.Pointer, then drains and closes the old scoring engine.
// Every request resolves the model exactly once, so a response is always
// computed wholly by one model version — no in-flight request ever sees a
// torn model.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"mime"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"malevade/internal/campaign"
	"malevade/internal/client"
	"malevade/internal/dataset"
	"malevade/internal/defense"
	"malevade/internal/detector"
	"malevade/internal/harden"
	"malevade/internal/nn"
	"malevade/internal/obs"
	"malevade/internal/registry"
	"malevade/internal/serve"
	"malevade/internal/store"
	"malevade/internal/tensor"
	"malevade/internal/wire"
)

// Options configures a Server. ModelPath is required; everything else has
// sensible defaults.
type Options struct {
	// ModelPath is the nn.SaveFile model the server loads at startup and
	// on every reload that names no explicit path.
	ModelPath string
	// Temperature is the softmax temperature of the probability head
	// (0 means 1).
	Temperature float64
	// Scorer tunes the underlying batched engine (workers, max merged
	// batch, queue depth).
	Scorer serve.Options
	// MaxRows caps the rows accepted in one /v1/score or /v1/label
	// request (default 4096). Larger batches are rejected with 400.
	MaxRows int
	// MaxBodyBytes caps the request body size (default 32 MiB). Larger
	// bodies are rejected with 413.
	MaxBodyBytes int64
	// BinaryPrecision selects the inference path for binary-framed
	// scoring requests (Content-Type application/x-malevade-rows-f32):
	// serve.PrecisionFloat32 (the default — vector kernels, drift bounded
	// by internal/nn's parity tests), serve.PrecisionInt8 (explicit
	// opt-in), or serve.PrecisionFloat64 to route binary frames through
	// the reference engine. JSON requests always score in float64.
	// Defended models and models whose weights fail plan compilation fall
	// back to float64 regardless.
	BinaryPrecision string
	// Campaigns tunes the attack-campaign orchestrator behind
	// /v1/campaigns (workers, queue depth, sample caps). LocalTarget,
	// CraftModel and RemoteTarget are filled by the server when unset:
	// campaigns then target the live generation-pinned model, craft on
	// the served network itself, and reach remote targets through the
	// client SDK.
	Campaigns campaign.Options
	// Defenses hardens every loaded model generation with a servable
	// defense chain (defense.Chain.Wrap): scoring, labels and campaign
	// verdicts then all travel the defended path, so the daemon serves a
	// hardened detector through the same API as a bare one. Every spec
	// must be buildable from the model alone (Chain.ValidateServable);
	// data-consuming defenses are built offline with ApplyDefenses and
	// served as an ordinary hardened model file. Applies to the default
	// model only; registry models carry their own per-version chains.
	Defenses defense.Chain
	// RegistryDir, when non-empty, opens the disk-backed model registry
	// rooted there and exposes it as /v1/models: named, versioned,
	// durable detectors with atomic live promotion, addressable from
	// scoring/label requests (the "model" field) and campaign specs
	// ("target_model"). Registry generations and default-slot reloads
	// draw from one monotonic counter.
	RegistryDir string
	// RegistryMaxModels / RegistryMaxVersions cap the registry (defaults
	// 64 models, 32 versions per model); past them registrations are
	// refused with 507 registry_full.
	RegistryMaxModels   int
	RegistryMaxVersions int
	// Harden tunes the closed-loop hardening controller behind /v1/harden
	// (workers, queue depth, round cap). Dir, Campaigns and Models are
	// filled by the server: job state persists under RegistryDir/.harden,
	// rounds run through the daemon's campaign engine, and hardened
	// versions promote through its registry. The controller only exists
	// when RegistryDir is set — hardening retrains and promotes named,
	// durable models.
	Harden harden.Options
	// Results tunes the durable campaign-results store behind /v1/results
	// (traffic flush threshold). Dir is filled by the server: results
	// persist under RegistryDir/.results, campaign per-sample results
	// stream into it as they are judged, and a restarted daemon serves
	// them back bit-identically. The store only exists when RegistryDir is
	// set — a registry-less daemon runs fully in-memory.
	Results store.Options
	// Miner tunes the historical-attack miner behind /v1/mine (workers,
	// queue depth, suspicion band). The miner sweeps the store's recorded
	// traffic, so it too only exists when RegistryDir is set.
	Miner store.MinerOptions
	// RecordTraffic, when positive, samples one in every RecordTraffic
	// scoring/label rows into the results store's traffic log (1 records
	// everything) — the daemon-side half of in-the-wild evasion mining.
	// Off by default: recording live traffic is an explicit operator
	// opt-in (`serve -record`).
	RecordTraffic int
	// Obs, when set, is the metrics registry the daemon records into and
	// serves at GET /metrics; nil makes the server create a private one.
	// Passing a shared registry embeds the daemon's metrics in a larger
	// process's exposition. /v1/stats is a backward-compatible view over
	// the same sources (docs/OBSERVABILITY.md maps every field).
	Obs *obs.Registry
	// Logger receives structured lifecycle events (boot, reload,
	// promotion, campaign/harden/mine transitions, store recovery) and
	// per-request access logs carrying X-Malevade-Request-Id. Nil
	// discards them.
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.Temperature <= 0 {
		o.Temperature = 1
	}
	if o.MaxRows <= 0 {
		o.MaxRows = 4096
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 32 << 20
	}
	if o.BinaryPrecision == "" {
		o.BinaryPrecision = serve.PrecisionFloat32
	}
	return o
}

// model is the server's name for one immutable loaded generation of the
// default slot — the registry's refcounted Instance (the drain machinery
// the reload path introduced now lives in internal/registry, shared with
// every named model's slot).
type model = registry.Instance

// Server is the HTTP scoring daemon. Create with New, serve with any
// http.Server (it implements http.Handler), and Close when done.
type Server struct {
	opts Options
	mux  *http.ServeMux

	// slot holds the live default-model generation. Handlers pin it with
	// acquire/release; Reload swaps it and drains the old generation.
	// Empty after Close.
	slot registry.Slot

	// reloadMu serializes Reload/Close so generations retire one at a
	// time and version numbers are strictly increasing.
	reloadMu sync.Mutex
	version  atomic.Int64

	// registry is the named-model store behind /v1/models (nil unless
	// Options.RegistryDir is set). It shares s.version as its generation
	// counter, so default-slot reloads and registry promotions draw from
	// one monotonic sequence.
	registry *registry.Registry

	// campaigns is the asynchronous attack-campaign orchestrator behind
	// /v1/campaigns; its local target pins one model generation per
	// campaign batch.
	campaigns *campaign.Engine

	// harden is the closed-loop hardening controller behind /v1/harden
	// (nil unless a registry is configured). Its durable job state lives
	// under RegistryDir/.harden, so a restarted daemon resumes in-flight
	// hardening jobs.
	harden *harden.Engine

	// store is the durable campaign-results store behind /v1/results (nil
	// unless a registry is configured). It lives under
	// RegistryDir/.results; the campaign engine streams every job's
	// per-sample results into it, and — behind Options.RecordTraffic —
	// sampled live scoring rows land in its traffic log.
	store *store.Store

	// miner runs queued historical-attack sweeps over the store's
	// recorded traffic behind /v1/mine (nil without a store).
	miner *store.Miner

	// recordSeq drives the 1-in-RecordTraffic row sampler.
	recordSeq atomic.Int64

	started time.Time // process start, for uptime_seconds

	// obs is the metrics registry behind GET /metrics; /v1/stats renders
	// the same sources, so the two views cannot drift. handler is the mux
	// wrapped in the shared HTTP middleware (request counts, latency
	// histograms, request IDs, access logs).
	obs     *obs.Registry
	log     *slog.Logger
	handler http.Handler

	requests      *obs.Counter    // scoring requests served (score + label)
	rejected      *obs.Counter    // scoring requests rejected with 4xx
	reloads       *obs.Counter    // successful hot-reloads
	precisionRows *obs.CounterVec // rows scored, by kernel precision

	// retiredBatches/retiredRows accumulate the engine counters of closed
	// generations so /v1/stats is cumulative across reloads.
	retiredBatches atomic.Int64
	retiredRows    atomic.Int64
}

// New loads the model at opts.ModelPath and returns a ready-to-serve daemon.
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	if opts.ModelPath == "" {
		return nil, fmt.Errorf("server: Options.ModelPath is required")
	}
	if !serve.ValidPrecision(opts.BinaryPrecision) {
		return nil, fmt.Errorf("server: unknown binary precision %q", opts.BinaryPrecision)
	}
	if len(opts.Defenses) > 0 {
		if err := opts.Defenses.ValidateServable(); err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
	}
	s := &Server{opts: opts, started: time.Now()}
	s.obs = opts.Obs
	if s.obs == nil {
		s.obs = obs.NewRegistry()
	}
	s.log = obs.Or(opts.Logger)
	// Core scoring counters live in the obs registry; /v1/stats reads
	// them back through Value(), so the JSON view and /metrics cannot
	// disagree.
	s.requests = s.obs.Counter("malevade_scoring_requests_total",
		"Scoring requests served (score + label), summed across reloads.")
	s.rejected = s.obs.Counter("malevade_scoring_rejected_total",
		"Scoring requests rejected with a 4xx before reaching an engine.")
	s.reloads = s.obs.Counter("malevade_reloads_total",
		"Successful hot model reloads on the default slot.")
	s.precisionRows = s.obs.CounterVec("malevade_serve_precision_rows_total",
		"Rows scored, by the kernel precision that actually ran them.",
		"precision")
	// Thread the registry into every engine the daemon builds: the slot
	// scorer and all registry-loaded scorers share one batch-rows
	// histogram, and the store/campaign/harden layers register their own
	// instruments against the same exposition.
	opts.Scorer.Obs = s.obs
	s.opts.Scorer.Obs = s.obs
	// The registry opens before the default slot loads: Open raises the
	// shared generation counter past every generation persisted in the
	// manifests, so the default model's generation — and everything after
	// it — stays unique even against a registry dir populated by an
	// earlier process.
	if opts.RegistryDir != "" {
		reg, err := registry.Open(registry.Options{
			Dir:         opts.RegistryDir,
			Temperature: opts.Temperature,
			Scorer:      opts.Scorer,
			MaxModels:   opts.RegistryMaxModels,
			MaxVersions: opts.RegistryMaxVersions,
			Gen:         &s.version,
			Logger:      opts.Logger,
		})
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		s.registry = reg
		// The results store nests beside the registry (Open skips
		// manifest-less directories, so .results is invisible to it) and
		// recovers prior campaigns before the engine below seeds its id
		// counter from them.
		resultsOpts := opts.Results
		if resultsOpts.Dir == "" {
			resultsOpts.Dir = filepath.Join(opts.RegistryDir, ".results")
		}
		if resultsOpts.Obs == nil {
			resultsOpts.Obs = s.obs
		}
		if resultsOpts.Logger == nil {
			resultsOpts.Logger = opts.Logger
		}
		st, err := store.Open(resultsOpts)
		if err != nil {
			s.registry.Close()
			return nil, fmt.Errorf("server: %w", err)
		}
		s.store = st
	}
	m, err := s.load(opts.ModelPath)
	if err != nil {
		if s.store != nil {
			s.store.Close()
		}
		if s.registry != nil {
			s.registry.Close()
		}
		return nil, err
	}
	s.slot.Store(m)
	campaignOpts := opts.Campaigns
	if s.store != nil && campaignOpts.Sink == nil {
		// Stream every campaign's per-sample results into the store, and
		// seed the id counter past recovered campaigns so c%06d ids stay
		// unique across restarts.
		campaignOpts.Sink = s.store
		if campaignOpts.BaseSeq == 0 {
			campaignOpts.BaseSeq = s.store.MaxCampaignSeq()
		}
	}
	if campaignOpts.LocalTarget == nil {
		campaignOpts.LocalTarget = serverTarget{s}
	}
	if campaignOpts.CraftModel == nil {
		campaignOpts.CraftModel = s.craftModel
	}
	if campaignOpts.RemoteTarget == nil {
		campaignOpts.RemoteTarget = func(baseURL string) (campaign.Target, error) {
			return client.NewRemoteTarget(baseURL), nil
		}
	}
	if s.registry != nil {
		if campaignOpts.NamedTarget == nil {
			campaignOpts.NamedTarget = func(name string) (campaign.Target, error) {
				// Validate eagerly (Submit calls this synchronously), then
				// judge batches against whatever version is live at batch
				// time — a promotion mid-campaign splits between batches,
				// never inside one.
				if _, err := s.registry.Get(name); err != nil {
					return nil, err
				}
				return namedTarget{s: s, name: name}, nil
			}
		}
		if campaignOpts.NamedCraftModel == nil {
			campaignOpts.NamedCraftModel = s.registry.LoadLive
		}
	}
	if campaignOpts.Obs == nil {
		campaignOpts.Obs = s.obs
	}
	if campaignOpts.Logger == nil {
		campaignOpts.Logger = opts.Logger
	}
	s.campaigns = campaign.NewEngine(campaignOpts)
	if s.registry != nil {
		hardenOpts := opts.Harden
		if hardenOpts.Dir == "" {
			// The registry's Open skips directories without a
			// manifest.json, so the job-state dir nests safely inside the
			// registry dir and shares its backup/restore story.
			hardenOpts.Dir = filepath.Join(opts.RegistryDir, ".harden")
		}
		hardenOpts.Campaigns = s.campaigns
		hardenOpts.Models = s.registry
		if hardenOpts.Obs == nil {
			hardenOpts.Obs = s.obs
		}
		if hardenOpts.Logger == nil {
			hardenOpts.Logger = opts.Logger
		}
		h, err := harden.NewEngine(hardenOpts)
		if err != nil {
			s.campaigns.Close()
			s.store.Close()
			s.registry.Close()
			old := s.slot.Swap(nil)
			if old != nil {
				s.retire(old)
			}
			return nil, fmt.Errorf("server: %w", err)
		}
		s.harden = h
	}
	if s.store != nil {
		minerOpts := opts.Miner
		if minerOpts.Logger == nil {
			minerOpts.Logger = opts.Logger
		}
		s.miner = store.NewMiner(s.store, minerOpts)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/score", s.handleScore)
	s.mux.HandleFunc("/v1/label", s.handleLabel)
	s.mux.HandleFunc("/v1/reload", s.handleReload)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("POST /v1/campaigns", s.handleCampaignSubmit)
	s.mux.HandleFunc("GET /v1/campaigns", s.handleCampaignList)
	s.mux.HandleFunc("GET /v1/campaigns/{id}", s.handleCampaignGet)
	s.mux.HandleFunc("DELETE /v1/campaigns/{id}", s.handleCampaignCancel)
	s.mux.HandleFunc("POST /v1/harden", s.handleHardenSubmit)
	s.mux.HandleFunc("GET /v1/harden", s.handleHardenList)
	s.mux.HandleFunc("GET /v1/harden/{id}", s.handleHardenGet)
	s.mux.HandleFunc("DELETE /v1/harden/{id}", s.handleHardenCancel)
	s.mux.HandleFunc("GET /v1/results", s.handleResultsList)
	s.mux.HandleFunc("GET /v1/results/{id}", s.handleResultsGet)
	s.mux.HandleFunc("POST /v1/results/{id}/replay", s.handleResultsReplay)
	s.mux.HandleFunc("POST /v1/mine", s.handleMineSubmit)
	s.mux.HandleFunc("GET /v1/mine", s.handleMineList)
	s.mux.HandleFunc("GET /v1/mine/{id}", s.handleMineGet)
	s.mux.HandleFunc("DELETE /v1/mine/{id}", s.handleMineCancel)
	s.mux.HandleFunc("GET /v1/models", s.handleModelList)
	s.mux.HandleFunc("POST /v1/models", s.handleModelRegister)
	s.mux.HandleFunc("GET /v1/models/{name}", s.handleModelGet)
	s.mux.HandleFunc("POST /v1/models/{name}", s.handleModelAction)
	s.mux.HandleFunc("DELETE /v1/models/{name}", s.handleModelDelete)
	s.mux.Handle("GET /metrics", s.obs.Handler())
	s.registerFuncMetrics()
	s.handler = obs.NewHTTP(s.obs, opts.Logger, nil).Wrap(s.mux)
	s.log.Info("daemon ready",
		"model_path", opts.ModelPath,
		"generation", s.ModelVersion(),
		"precision", opts.BinaryPrecision,
		"registry", opts.RegistryDir != "",
		"record_traffic", opts.RecordTraffic,
	)
	return s, nil
}

// registerFuncMetrics exposes values other layers already maintain —
// engine counters, registry state, store sizes, job-queue totals — as
// callback metrics so scrapes read the exact sources /v1/stats renders.
func (s *Server) registerFuncMetrics() {
	s.obs.GaugeFunc("malevade_uptime_seconds",
		"Seconds since the daemon process booted.",
		func() float64 { return time.Since(s.started).Seconds() })
	s.obs.GaugeFunc("malevade_model_generation",
		"Monotonic generation of the model live on the default slot.",
		func() float64 { return float64(s.ModelVersion()) })
	s.obs.CounterFunc("malevade_serve_batches_total",
		"Forward passes executed, cumulative across hot reloads.",
		func() float64 { b, _ := s.engineTotals(); return float64(b) })
	s.obs.CounterFunc("malevade_serve_rows_total",
		"Rows scored by the engine, cumulative across hot reloads.",
		func() float64 { _, r := s.engineTotals(); return float64(r) })
	s.obs.GaugeFunc("malevade_serve_queue_depth",
		"Scoring requests buffered across every live engine's queue.",
		func() float64 { q, _ := s.engineLoad(); return float64(q) })
	s.obs.GaugeFunc("malevade_serve_inflight_requests",
		"Scoring requests submitted to engines and not yet answered.",
		func() float64 { _, f := s.engineLoad(); return float64(f) })
	s.obs.CounterFunc("malevade_campaigns_submitted_total",
		"Adversarial campaigns accepted over the daemon lifetime.",
		func() float64 { return float64(s.campaigns.Submitted()) })
	if s.registry != nil {
		s.obs.GaugeFunc("malevade_registry_models",
			"Named models currently resident in the registry.",
			func() float64 { return float64(len(s.registry.List())) })
		s.obs.CounterFunc("malevade_registry_promotions_total",
			"Version promotions (register-with-promote + explicit promote).",
			func() float64 { return float64(s.registry.Promotions()) })
		s.obs.CounterVecFunc("malevade_model_requests_total",
			"Scoring requests served per registry model.",
			"model",
			func() map[string]float64 {
				counts := s.registry.RequestCounts()
				out := make(map[string]float64, len(counts))
				for name, n := range counts {
					out[name] = float64(n)
				}
				return out
			})
	}
	if s.harden != nil {
		s.obs.CounterFunc("malevade_harden_submitted_total",
			"Hardening jobs accepted over the daemon lifetime.",
			func() float64 { return float64(s.harden.Submitted()) })
	}
	if s.store != nil {
		s.obs.CounterFunc("malevade_store_records_total",
			"Result records appended to the campaign store.",
			func() float64 { return float64(s.store.Records()) })
		s.obs.GaugeFunc("malevade_store_bytes",
			"Bytes held by the campaign result logs on disk.",
			func() float64 { return float64(s.store.Bytes()) })
		s.obs.GaugeFunc("malevade_store_traffic_bytes",
			"Bytes held by the sampled live-traffic log (traffic.mrl).",
			func() float64 { return float64(s.store.TrafficBytes()) })
		s.obs.GaugeFunc("malevade_store_traffic_records",
			"Sampled live-traffic records available for mining.",
			func() float64 { return float64(s.store.TrafficRecords()) })
	}
	if s.miner != nil {
		s.obs.CounterFunc("malevade_mine_submitted_total",
			"Traffic-mining jobs accepted over the daemon lifetime.",
			func() float64 { return float64(s.miner.Submitted()) })
	}
}

// engineTotals sums batch/row counters across retired generations and
// the live slot. It holds reloadMu, because a reload swaps the slot before
// it folds the old engine's counters into the retired totals: a sum taken
// between the two would miss that engine and the scraped counters would
// move backwards.
func (s *Server) engineTotals() (batches, rows int64) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	m := s.acquire()
	batches, rows = s.retiredBatches.Load(), s.retiredRows.Load()
	if m != nil {
		b, r := m.Scorer.Stats()
		batches += b
		rows += r
		s.release(m)
	}
	return batches, rows
}

// engineLoad sums queue depth and in-flight counts over the default
// slot and every live registry engine.
func (s *Server) engineLoad() (queue, inflight int64) {
	if m := s.slot.Load(); m != nil {
		queue += int64(m.Scorer.QueueDepth())
		inflight += m.Scorer.InFlight()
	}
	if s.registry != nil {
		q, f := s.registry.EngineLoad()
		queue += q
		inflight += f
	}
	return queue, inflight
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// load builds the next default-slot generation from a saved network file,
// through the registry's shared instance builder (engine + optional
// defense wrap + two-class-head validation at load time).
func (s *Server) load(path string) (*model, error) {
	gen := s.version.Add(1)
	m, err := registry.BuildInstance(registry.InstanceConfig{
		Path:        path,
		Version:     int(gen),
		Generation:  gen,
		Temperature: s.opts.Temperature,
		Scorer:      s.opts.Scorer,
		Defenses:    s.opts.Defenses,
	})
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	return m, nil
}

// acquire pins the current default-model generation for the duration of
// one request (registry.Slot.Acquire: a successful acquire guarantees the
// generation stayed current at the moment its refcount became visible, so
// a reload's drain can never close an engine a request is still using).
// Returns nil after Close.
func (s *Server) acquire() *model { return s.slot.Acquire() }

func (s *Server) release(m *model) { m.Release() }

// retire drains a swapped-out generation and folds its engine counters
// into the cumulative stats.
func (s *Server) retire(m *model) {
	b, r := m.Retire()
	s.retiredBatches.Add(b)
	s.retiredRows.Add(r)
}

// Reload hot-swaps the model. An empty path reloads from the configured
// ModelPath; a non-empty path becomes the new configured path on success.
// In-flight requests finish on the generation they started on.
func (s *Server) Reload(path string) (version int64, err error) {
	m, err := s.reload(path)
	if err != nil {
		return 0, err
	}
	return m.Generation, nil
}

// reload is Reload returning the swapped-in generation, so callers can
// report its version and resolved path as a consistent pair.
func (s *Server) reload(path string) (*model, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	old := s.slot.Load()
	if old == nil {
		return nil, fmt.Errorf("server: reload after Close")
	}
	if path == "" {
		path = old.Path
	}
	m, err := s.load(path)
	if err != nil {
		return nil, err
	}
	s.slot.Store(m)
	s.reloads.Inc()
	s.log.Info("model reloaded",
		"path", m.Path, "generation", m.Generation)
	s.retire(old)
	return m, nil
}

// Registry exposes the daemon's model registry (nil unless RegistryDir
// was configured), for embedders that register or promote in-process.
func (s *Server) Registry() *registry.Registry { return s.registry }

// Close cancels running campaigns, drains in-flight requests and releases
// the scoring engines — the default slot's and every registry model's.
// Subsequent requests are answered 503. The registry's on-disk store is
// untouched, so a daemon restarted on the same -registry dir serves the
// previously live versions. Idempotent.
func (s *Server) Close() {
	// The hardening controller closes first: its jobs drive campaigns and
	// registry promotions, so stopping it (resumably — in-flight jobs keep
	// their durable state) lets the campaign and registry shutdowns below
	// proceed without live submitters. Then campaigns: their batches hold
	// generation refs through serverTarget/namedTarget, so cancelling and
	// draining them lets the retires below complete without waiting on
	// long-running jobs.
	if s.harden != nil {
		s.harden.Close()
	}
	s.campaigns.Close()
	// The miner and store close after campaigns: the drained engine has
	// delivered every terminal snapshot to its sink by now, so the store
	// seals each campaign log before closing.
	if s.miner != nil {
		s.miner.Close()
	}
	if s.store != nil {
		s.store.Close()
	}
	if s.registry != nil {
		s.registry.Close()
	}
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	old := s.slot.Swap(nil)
	if old != nil {
		s.retire(old)
		s.log.Info("daemon shut down",
			"uptime_seconds", time.Since(s.started).Seconds())
	}
}

// ModelVersion reports the current default-model generation (1 at
// startup, advanced by each successful reload — and, when a registry is
// configured, sharing its monotonic sequence with promotions).
func (s *Server) ModelVersion() int64 {
	if m := s.slot.Load(); m != nil {
		return m.Generation
	}
	return 0
}

// Wire schemas.

// ScoreRequest is the body of /v1/score and /v1/label: a batch of feature
// vectors, each exactly the addressed model's input width. Model routes
// the request to a named registry model; empty keeps the daemon's
// original single-model behavior, so the wire protocol is backward
// compatible.
type ScoreRequest struct {
	Model string      `json:"model,omitempty"`
	Rows  [][]float64 `json:"rows"`
}

// ScoreResult is one row's verdict.
type ScoreResult struct {
	// Prob is P(malware|x) at the server's temperature.
	Prob float64 `json:"prob"`
	// Class is the argmax class (0 clean, 1 malware).
	Class int `json:"class"`
}

// ScoreResponse answers /v1/score. ModelVersion identifies the exact model
// generation that computed every row of Results.
type ScoreResponse struct {
	ModelVersion int64         `json:"model_version"`
	Results      []ScoreResult `json:"results"`
}

// LabelResponse answers /v1/label with oracle-style hard labels.
type LabelResponse struct {
	ModelVersion int64 `json:"model_version"`
	Labels       []int `json:"labels"`
}

// ReloadRequest optionally names a new model path for /v1/reload; an empty
// body or empty path reloads the configured path.
type ReloadRequest struct {
	Path string `json:"path"`
}

// ReloadResponse reports the swapped-in generation.
type ReloadResponse struct {
	ModelVersion int64  `json:"model_version"`
	ModelPath    string `json:"model_path"`
}

// HealthResponse answers /healthz.
type HealthResponse struct {
	Status       string `json:"status"`
	ModelVersion int64  `json:"model_version"`
	ModelPath    string `json:"model_path"`
	LoadedAt     string `json:"loaded_at"`
	InDim        int    `json:"in_dim"`
	// Defenses names the live defense chain, in application order (empty
	// for a bare daemon).
	Defenses []string `json:"defenses,omitempty"`
	// Models counts the registry's named models (absent without a
	// registry).
	Models int `json:"models,omitempty"`
	// ModelNames lists the registry's model names, sorted (absent without
	// a registry) — what a fleet gateway's health probe needs for
	// per-model routing without a second round-trip.
	ModelNames []string `json:"model_names,omitempty"`
}

// StatsResponse answers /v1/stats with counters cumulative across reloads.
type StatsResponse struct {
	ModelVersion int64 `json:"model_version"`
	// UptimeSeconds is how long the daemon process has been serving.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Requests/Rejected count scoring calls (score + label) served and
	// refused with a 4xx.
	Requests int64 `json:"requests"`
	Rejected int64 `json:"rejected"`
	Reloads  int64 `json:"reloads"`
	// Batches/Rows are the default-model engine's merged-batch counters;
	// Rows/Batches is the mean coalescing factor.
	Batches int64 `json:"batches"`
	Rows    int64 `json:"rows"`
	// Campaigns counts campaign submissions accepted by /v1/campaigns.
	Campaigns int64 `json:"campaigns"`
	// HardenJobs counts hardening jobs accepted by /v1/harden (absent
	// without a registry).
	HardenJobs int64 `json:"harden_jobs,omitempty"`
	// ResultsRecords/ResultsBytes count the durable results store's
	// committed records and bytes across every log (absent without a
	// registry, and therefore without a store).
	ResultsRecords int64 `json:"results_records,omitempty"`
	ResultsBytes   int64 `json:"results_bytes,omitempty"`
	// MineJobs counts mining sweeps accepted by /v1/mine (absent without
	// a registry).
	MineJobs int64 `json:"mine_jobs,omitempty"`
	// ModelRequests counts model-addressed scoring/label requests served
	// per registry model (absent without a registry).
	ModelRequests map[string]int64 `json:"model_requests,omitempty"`
}

// errorResponse is the JSON error envelope, carrying the human message
// and the machine-readable taxonomy code (wire.Envelope is the canonical
// definition; the alias keeps the server's wire schemas in one place).
type errorResponse = wire.Envelope

// writeJSON, writeError and writeErrorCode are the wire package's shared
// renderers (marshal-first: an unencodable value becomes a 500 envelope,
// never an empty committed 200), aliased to keep this package's handler
// code terse.
func writeJSON(w http.ResponseWriter, status int, v any) { wire.WriteJSON(w, status, v) }

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	wire.WriteError(w, status, format, args...)
}

func writeErrorCode(w http.ResponseWriter, status int, code, format string, args ...any) {
	wire.WriteErrorCode(w, status, code, format, args...)
}

func (s *Server) reject(w http.ResponseWriter, status int, format string, args ...any) {
	s.rejected.Inc()
	writeError(w, status, format, args...)
}

// readBody reads a scoring request body under the configured byte cap.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, int, error) {
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	raw, err := io.ReadAll(body)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return nil, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", s.opts.MaxBodyBytes)
		}
		return nil, http.StatusBadRequest, fmt.Errorf("read body: %v", err)
	}
	return raw, 0, nil
}

// decodeScoreRequest is the strict scoring-body decoder. Every failure
// mode — malformed JSON, unknown fields, trailing data — is a client
// error; row validation happens in rowsMatrix once the addressed model
// (and therefore the expected width) is known.
func decodeScoreRequest(raw []byte) (ScoreRequest, int, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var req ScoreRequest
	if err := dec.Decode(&req); err != nil {
		return ScoreRequest{}, http.StatusBadRequest, fmt.Errorf("invalid JSON: %v", err)
	}
	if dec.More() {
		return ScoreRequest{}, http.StatusBadRequest, fmt.Errorf("trailing data after JSON body")
	}
	return req, 0, nil
}

// rowsMatrix validates a decoded batch against the addressed model's
// input width and packs it into a matrix; the validator never panics on
// hostile input.
func (s *Server) rowsMatrix(rows [][]float64, inDim int) (*tensor.Matrix, int, error) {
	if len(rows) == 0 {
		return nil, http.StatusBadRequest, fmt.Errorf("rows must be a non-empty array")
	}
	if len(rows) > s.opts.MaxRows {
		return nil, http.StatusBadRequest,
			fmt.Errorf("batch of %d rows exceeds limit %d", len(rows), s.opts.MaxRows)
	}
	x := tensor.New(len(rows), inDim)
	for i, row := range rows {
		if len(row) != inDim {
			return nil, http.StatusBadRequest,
				fmt.Errorf("row %d has %d features, want %d", i, len(row), inDim)
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, http.StatusBadRequest,
					fmt.Errorf("row %d feature %d is not finite", i, j)
			}
		}
		copy(x.Row(i), row)
	}
	return x, 0, nil
}

// registryAcquire pins a named registry model's live instance, mapping
// registry errors onto the wire taxonomy: unknown names are 404
// unknown_model, a model with no live version is 409 version_conflict,
// and a daemon without a registry refuses model addressing outright.
func (s *Server) registryAcquire(name string) (*model, int, string, error) {
	if s.registry == nil {
		return nil, http.StatusUnprocessableEntity, wire.CodeInvalidSpec,
			fmt.Errorf("daemon has no model registry (start with -registry)")
	}
	inst, err := s.registry.Acquire(name)
	switch {
	case err == nil:
		return inst, 0, "", nil
	case errors.Is(err, registry.ErrUnknownModel):
		return nil, http.StatusNotFound, wire.CodeUnknownModel, err
	case errors.Is(err, registry.ErrVersionConflict):
		return nil, http.StatusConflict, wire.CodeVersionConflict, err
	default:
		return nil, http.StatusServiceUnavailable, wire.CodeUnavailable, err
	}
}

// score runs the shared request path of /v1/score and /v1/label: pin one
// model generation — the default slot, or the registry model the body's
// "model" field names — decode against its input width, and hand the
// pinned generation plus the decoded batch to render. Every verdict of
// one request is computed wholly by that generation — off the engine's
// raw logits for a bare model, through the defense chain for a defended
// one.
//
// Canonical single-model bodies take the reflection-free fast parser
// (fastrows.go); anything it declines — including every model-addressed
// body — falls back to the strict encoding/json path, which owns every
// error message, so hostile inputs see exactly the behavior they always
// did.
//
// The request's Content-Type picks the representation: absent or JSON
// takes the paths above; the binary rows frame (wire.ContentTypeRowsF32)
// takes scoreFrame and the reduced-precision engine; anything else is a
// 415 unsupported_media_type. render32 renders one reduced-precision
// batch and is only ever called with a precision whose plan compiled.
func (s *Server) score(w http.ResponseWriter, r *http.Request,
	render func(m *model, x *tensor.Matrix),
	render32 func(m *model, x *tensor.Matrix32, precision string)) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.reject(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	binary := false
	if ct := r.Header.Get("Content-Type"); ct != "" {
		mt, _, err := mime.ParseMediaType(ct)
		if err != nil {
			s.reject(w, http.StatusUnsupportedMediaType, "unparseable Content-Type %q", ct)
			return
		}
		switch mt {
		case wire.ContentTypeJSON:
		case wire.ContentTypeRowsF32:
			binary = true
		default:
			s.reject(w, http.StatusUnsupportedMediaType,
				"unsupported Content-Type %q (use %s or %s)", mt, wire.ContentTypeJSON, wire.ContentTypeRowsF32)
			return
		}
	}
	m := s.acquire()
	if m == nil {
		writeError(w, http.StatusServiceUnavailable, "server is shut down")
		return
	}
	defer s.release(m)
	raw, status, err := s.readBody(w, r)
	if err != nil {
		s.reject(w, status, "%v", err)
		return
	}
	if binary {
		s.scoreFrame(w, m, raw, render, render32)
		return
	}
	if x, ok := fastParseRows(raw, m.Scorer.InDim(), s.opts.MaxRows); ok {
		s.requests.Inc()
		s.precisionRows.With(serve.PrecisionFloat64).Add(int64(x.Rows))
		m.CountRequest()
		render(m, x)
		return
	}
	req, status, err := decodeScoreRequest(raw)
	if err != nil {
		s.reject(w, status, "%v", err)
		return
	}
	target := m
	if req.Model != "" {
		named, status, code, err := s.registryAcquire(req.Model)
		if err != nil {
			s.rejected.Inc()
			writeErrorCode(w, status, code, "%v", err)
			return
		}
		defer named.Release()
		target = named
	}
	x, status, err := s.rowsMatrix(req.Rows, target.Scorer.InDim())
	if err != nil {
		s.reject(w, status, "%v", err)
		return
	}
	s.requests.Inc()
	s.precisionRows.With(serve.PrecisionFloat64).Add(int64(x.Rows))
	target.CountRequest()
	render(target, x)
}

// scoreFrame is the binary half of the scoring path: parse the rows
// frame, resolve its model field exactly like the JSON "model" field,
// validate shape and finiteness under the same limits, then score through
// the reduced-precision plan. A defended model, a float64
// BinaryPrecision, or a model whose weights refuse plan compilation falls
// back to the float64 reference path — callers opted into a wire format,
// not into wrong answers.
func (s *Server) scoreFrame(w http.ResponseWriter, m *model, raw []byte,
	render func(m *model, x *tensor.Matrix),
	render32 func(m *model, x *tensor.Matrix32, precision string)) {
	f, err := wire.ParseFrame(raw)
	if err != nil {
		s.reject(w, http.StatusBadRequest, "%v", err)
		return
	}
	target := m
	if f.Model != "" {
		named, status, code, err := s.registryAcquire(f.Model)
		if err != nil {
			s.rejected.Inc()
			writeErrorCode(w, status, code, "%v", err)
			return
		}
		defer named.Release()
		target = named
	}
	if f.Rows > s.opts.MaxRows {
		s.reject(w, http.StatusBadRequest, "batch of %d rows exceeds limit %d", f.Rows, s.opts.MaxRows)
		return
	}
	if inDim := target.Scorer.InDim(); f.Cols != inDim {
		s.reject(w, http.StatusBadRequest, "frame rows have %d features, want %d", f.Cols, inDim)
		return
	}
	x32 := tensor.FromSlice32(f.Rows, f.Cols, f.Values())
	for i, v := range x32.Data {
		f64 := float64(v)
		if math.IsNaN(f64) || math.IsInf(f64, 0) {
			s.reject(w, http.StatusBadRequest, "row %d feature %d is not finite", i/f.Cols, i%f.Cols)
			return
		}
	}
	s.requests.Inc()
	target.CountRequest()
	precision := s.opts.BinaryPrecision
	if target.Det != nil || precision == serve.PrecisionFloat64 ||
		target.Scorer.EnsurePlan(precision) != nil {
		s.precisionRows.With(serve.PrecisionFloat64).Add(int64(f.Rows))
		render(target, x32.Float64())
		return
	}
	s.precisionRows.With(precision).Add(int64(f.Rows))
	render32(target, x32, precision)
}

func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	s.score(w, r, func(m *model, x *tensor.Matrix) {
		resp := ScoreResponse{
			ModelVersion: m.Generation,
			Results:      make([]ScoreResult, x.Rows),
		}
		if m.Det != nil {
			// Defended model: the chain's verdicts (a squeezing flag
			// saturates Prob to 1) replace the raw softmax head. Chains
			// exposing the combined Verdicts pass (feature squeezing
			// does) answer probability and class from one inference.
			ps, classes := detectorVerdicts(m.Det, x)
			for i := range resp.Results {
				resp.Results[i] = ScoreResult{Prob: ps[i], Class: classes[i]}
			}
		} else {
			logits := m.Scorer.Logits(x)
			probs := make([]float64, logits.Cols)
			for i := range resp.Results {
				nn.SoftmaxRow(logits.Row(i), probs, s.opts.Temperature)
				resp.Results[i] = ScoreResult{
					Prob:  probs[dataset.LabelMalware],
					Class: logits.RowArgmax(i),
				}
			}
		}
		s.recordRows("score", m, x.Row, x.Rows, func(i int) (float64, bool, int) {
			return resp.Results[i].Prob, true, resp.Results[i].Class
		})
		writeJSON(w, http.StatusOK, resp)
	}, func(m *model, x *tensor.Matrix32, precision string) {
		ps, classes, err := m.Scorer.Verdicts32(x, precision)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		resp := ScoreResponse{
			ModelVersion: m.Generation,
			Results:      make([]ScoreResult, x.Rows),
		}
		for i := range resp.Results {
			resp.Results[i] = ScoreResult{Prob: ps[i], Class: classes[i]}
		}
		s.recordRows("score", m, row32(x), x.Rows, func(i int) (float64, bool, int) {
			return ps[i], true, classes[i]
		})
		writeJSON(w, http.StatusOK, resp)
	})
}

// recordRows samples rows of one served scoring batch into the results
// store's traffic log (Options.RecordTraffic is the 1-in-N rate; 0
// disables). Recording failures are swallowed: a full disk must never fail
// a scoring request.
func (s *Server) recordRows(endpoint string, m *model, rowAt func(int) []float64, n int, verdict func(int) (prob float64, hasProb bool, class int)) {
	if s.store == nil || s.opts.RecordTraffic <= 0 {
		return
	}
	every := int64(s.opts.RecordTraffic)
	now := time.Now()
	for i := 0; i < n; i++ {
		if s.recordSeq.Add(1)%every != 0 {
			continue
		}
		prob, hasProb, class := verdict(i)
		_ = s.store.RecordTraffic(store.TrafficRow{
			Time:       now,
			Endpoint:   endpoint,
			Model:      m.Name,
			Generation: m.Generation,
			Prob:       prob,
			HasProb:    hasProb,
			Class:      class,
			Row:        append([]float64(nil), rowAt(i)...),
		})
	}
}

// row32 adapts a float32 batch's rows to the float64 row accessor
// recordRows wants — conversion happens only for the sampled rows.
func row32(x *tensor.Matrix32) func(int) []float64 {
	return func(i int) []float64 {
		out := make([]float64, x.Cols)
		for j := 0; j < x.Cols; j++ {
			out[j] = float64(x.Data[i*x.Cols+j])
		}
		return out
	}
}

// detectorVerdicts fetches probabilities and classes for one batch,
// through the detector's combined single-pass path when it has one.
func detectorVerdicts(det detector.Detector, x *tensor.Matrix) ([]float64, []int) {
	if v, ok := det.(interface {
		Verdicts(x *tensor.Matrix) ([]float64, []int)
	}); ok {
		return v.Verdicts(x)
	}
	return det.MalwareProb(x), det.Predict(x)
}

func (s *Server) handleLabel(w http.ResponseWriter, r *http.Request) {
	s.score(w, r, func(m *model, x *tensor.Matrix) {
		resp := LabelResponse{ModelVersion: m.Generation}
		if m.Det != nil {
			resp.Labels = m.Det.Predict(x)
		} else {
			logits := m.Scorer.Logits(x)
			resp.Labels = make([]int, logits.Rows)
			for i := range resp.Labels {
				resp.Labels[i] = logits.RowArgmax(i)
			}
		}
		s.recordRows("label", m, x.Row, x.Rows, func(i int) (float64, bool, int) {
			// Label rows carry only the hard class: the oracle endpoint
			// never computed a probability.
			return 0, false, resp.Labels[i]
		})
		writeJSON(w, http.StatusOK, resp)
	}, func(m *model, x *tensor.Matrix32, precision string) {
		_, classes, err := m.Scorer.Verdicts32(x, precision)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		s.recordRows("label", m, row32(x), x.Rows, func(i int) (float64, bool, int) {
			return 0, false, classes[i]
		})
		writeJSON(w, http.StatusOK, LabelResponse{ModelVersion: m.Generation, Labels: classes})
	})
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	// An entirely empty body means "reload the configured path"; anything
	// present must be valid JSON.
	var req ReloadRequest
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		writeError(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	m, err := s.reload(req.Path)
	if err != nil {
		// A failure on a client-supplied path is the client's error (the
		// current model keeps serving either way, so it's 422
		// invalid_spec); only a failure of the server's own configured
		// path is a server fault worth a 500 internal.
		status := http.StatusInternalServerError
		if req.Path != "" {
			status = http.StatusUnprocessableEntity
		}
		writeError(w, status, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, ReloadResponse{ModelVersion: m.Generation, ModelPath: m.Path})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	m := s.slot.Load()
	if m == nil {
		writeJSON(w, http.StatusServiceUnavailable, HealthResponse{Status: "shutdown"})
		return
	}
	resp := HealthResponse{
		Status:       "ok",
		ModelVersion: m.Generation,
		ModelPath:    m.Path,
		LoadedAt:     m.LoadedAt.UTC().Format(time.RFC3339),
		InDim:        m.Scorer.InDim(),
		Defenses:     s.opts.Defenses.Names(),
	}
	if s.registry != nil {
		resp.ModelNames = s.registry.Names()
		resp.Models = len(resp.ModelNames)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	batches, rows := s.engineTotals()
	resp := StatsResponse{
		UptimeSeconds: time.Since(s.started).Seconds(),
		Requests:      s.requests.Value(),
		Rejected:      s.rejected.Value(),
		Reloads:       s.reloads.Value(),
		Batches:       batches,
		Rows:          rows,
		Campaigns:     s.campaigns.Submitted(),
	}
	if s.harden != nil {
		resp.HardenJobs = s.harden.Submitted()
	}
	if s.store != nil {
		resp.ResultsRecords = s.store.Records()
		resp.ResultsBytes = s.store.Bytes()
	}
	if s.miner != nil {
		resp.MineJobs = s.miner.Submitted()
	}
	if m := s.slot.Load(); m != nil {
		resp.ModelVersion = m.Generation
	}
	if s.registry != nil {
		resp.ModelRequests = s.registry.RequestCounts()
	}
	writeJSON(w, http.StatusOK, resp)
}
