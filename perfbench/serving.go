package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"sync/atomic"
	"time"

	"malevade/internal/client"
	"malevade/internal/dataset"
	"malevade/internal/gateway"
	"malevade/internal/nn"
	"malevade/internal/obs"
	"malevade/internal/registry"
	"malevade/internal/serve"
	"malevade/internal/server"
	"malevade/internal/tensor"
)

// The two serving workloads drive the scoring API over loopback HTTP
// through the client SDK: score-bin straight to the daemon in binary
// frames, probe-json through the gateway in small JSON requests.

// scored is one reference answer: per-row malware probability and class.
type scored struct {
	probs   []float64
	classes []int
}

// checkVerdicts compares an answer with its reference bit for bit.
func checkVerdicts(got []client.Verdict, want scored) error {
	if len(got) != len(want.classes) {
		return fmt.Errorf("%d verdicts for %d rows", len(got), len(want.classes))
	}
	for i, v := range got {
		if math.Float64bits(v.Prob) != math.Float64bits(want.probs[i]) || v.Class != want.classes[i] {
			return fmt.Errorf("row %d: got prob %v class %d, want %v class %d",
				i, v.Prob, v.Class, want.probs[i], want.classes[i])
		}
	}
	return nil
}

func checkLabels(got []int, want scored) error {
	if len(got) != len(want.classes) {
		return fmt.Errorf("%d labels for %d rows", len(got), len(want.classes))
	}
	for i, c := range got {
		if c != want.classes[i] {
			return fmt.Errorf("row %d: got label %d, want %d", i, c, want.classes[i])
		}
	}
	return nil
}

// forwardReference scores x by serial Network.Forward, the reference every
// float64 scoring path must match bit for bit.
func forwardReference(net *nn.Network, x *tensor.Matrix) scored {
	logits := net.Forward(x, false)
	out := scored{probs: make([]float64, x.Rows), classes: make([]int, x.Rows)}
	buf := make([]float64, logits.Cols)
	for i := 0; i < x.Rows; i++ {
		nn.SoftmaxRow(logits.Row(i), buf, 1)
		out.probs[i] = buf[dataset.LabelMalware]
		out.classes[i] = logits.RowArgmax(i)
	}
	return out
}

// engineReplays times the scoring engines single-threaded on a workload's
// own scoring inputs, off the serving path: the float32 plan through
// Scorer.Verdicts32, the float64 worker pool through Scorer.Logits, and the
// bare network through Network.Infer. The gap between the last two is the
// pool hand-off. Each path is warmed once before it is timed.
func engineReplays(net *nn.Network, inputs []*tensor.Matrix) (map[string]float64, error) {
	if len(inputs) == 0 {
		return nil, fmt.Errorf("no scoring inputs to replay")
	}
	sc := serve.New(net, 1, serve.Options{})
	defer sc.Close()
	if err := sc.EnsurePlan(serve.PrecisionFloat32); err != nil {
		return nil, err
	}
	x32 := make([]*tensor.Matrix32, len(inputs))
	for i, x := range inputs {
		x32[i] = tensor.ToFloat32(x)
	}
	ws := net.NewWorkspace()
	verdicts := func(i int) error {
		_, _, err := sc.Verdicts32(x32[i], serve.PrecisionFloat32)
		return err
	}
	pool := func(i int) error { sc.Logits(inputs[i]); return nil }
	infer := func(i int) error { net.Infer(ws, inputs[i]); return nil }
	out := make(map[string]float64)
	for _, r := range []struct {
		name string
		fn   func(int) error
	}{{"serve.f32_ms", verdicts}, {"serve.pool_ms", pool}, {"nn.infer_ms", infer}} {
		if err := r.fn(0); err != nil {
			return nil, err
		}
		v, err := timeEach(len(inputs), r.fn)
		if err != nil {
			return nil, err
		}
		out[r.name] = v
	}
	return out, nil
}

// score-bin: the bulk path. Two closed-loop generators send 256 corpus rows
// per /v1/score call as binary float32 frames straight to a default
// daemon; answers must equal in-process Scorer.Verdicts32 on the same
// frame.

const (
	frameRows = 256
	numFrames = 8
)

type scoreBin struct {
	f      *fixture
	frames []*tensor.Matrix
	refs   []scored
}

func prepareScoreBin(f *fixture) (bench, error) {
	sc := serve.New(f.net, 1, serve.Options{})
	defer sc.Close()
	b := &scoreBin{f: f}
	for i := 0; i < numFrames; i++ {
		x := f.pick(f.rows, frameRows)
		probs, classes, err := sc.Verdicts32(tensor.ToFloat32(x), serve.PrecisionFloat32)
		if err != nil {
			return nil, err
		}
		b.frames = append(b.frames, x)
		b.refs = append(b.refs, scored{probs, classes})
	}
	return b, nil
}

type scoreBinSystem struct {
	b       *scoreBin
	tr      *tracer
	srv     *server.Server
	hs      *loopback
	tp      *http.Transport
	c       *client.Client
	version int64
	next    atomic.Int64
}

func (b *scoreBin) boot(tr *tracer) (system, time.Duration, error) {
	start := time.Now()
	srv, err := server.New(server.Options{ModelPath: b.f.modelPath})
	if err != nil {
		return nil, 0, err
	}
	s := &scoreBinSystem{b: b, tr: tr, srv: srv, tp: newTransport(), version: srv.ModelVersion()}
	if s.hs, err = serveLoopback(&traceHandler{t: tr, name: "server", parent: "client.rt", next: srv}); err != nil {
		srv.Close()
		return nil, 0, err
	}
	s.c = client.New(s.hs.url)
	s.c.Codec = client.CodecBinary
	s.c.Retries = -1 // every refusal is a failed op, not a hidden retry
	s.c.HTTPClient = tracedClient(tr, "client.rt", "sdk", s.tp)
	if _, _, err := s.op(context.Background(), "setup", 0); err != nil {
		s.close()
		return nil, 0, fmt.Errorf("first answer: %w", err)
	}
	return s, time.Since(start), nil
}

func (s *scoreBinSystem) op(ctx context.Context, id string, _ int) (int, time.Duration, error) {
	i := int(s.next.Add(1)) % numFrames
	x := s.b.frames[i]
	start := time.Now()
	got, version, err := s.c.Score(obs.WithRequestID(ctx, id), x)
	lat := time.Since(start)
	s.tr.record(id, "sdk", "", start)
	if err != nil {
		return 0, lat, err
	}
	if version != s.version {
		return 0, lat, fmt.Errorf("answered by generation %d, want %d", version, s.version)
	}
	if err := checkVerdicts(got, s.b.refs[i]); err != nil {
		return 0, lat, err
	}
	return x.Rows, lat, nil
}

func (s *scoreBinSystem) scrape() ([]byte, error) {
	return scrapeURL(&http.Client{Transport: s.tp}, s.hs.url)
}

func (s *scoreBinSystem) close() {
	s.hs.close()
	s.srv.Close()
	s.tp.CloseIdleConnections()
}

func (b *scoreBin) layers(system, []span, int) (map[string]float64, error) {
	inputs := append(append([]*tensor.Matrix(nil), b.frames...), b.frames...)
	return engineReplays(b.f.net, inputs)
}

// probe-json: the per-request path. Two closed-loop generators send JSON
// requests of 1–16 corpus rows, alternating /v1/score and /v1/label, half
// of them addressed to the registry model by name, through a one-replica
// gateway to a daemon that records one row in eight into its traffic log.
// Answers must equal serial Network.Forward.

const (
	numProbes     = 512
	maxProbeRows  = 16
	registryModel = "fixture"
	recordEvery   = 8
)

type probe struct {
	label bool
	model string
	x     *tensor.Matrix
	want  scored
}

type probeJSON struct {
	f      *fixture
	regDir string
	probes []probe
}

func prepareProbeJSON(f *fixture) (bench, error) {
	b := &probeJSON{f: f, regDir: filepath.Join(f.dir, "registry")}
	reg, err := registry.Open(registry.Options{Dir: b.regDir})
	if err != nil {
		return nil, err
	}
	_, err = reg.Register(registry.RegisterRequest{Name: registryModel, Path: f.modelPath, Promote: true})
	reg.Close()
	if err != nil {
		return nil, fmt.Errorf("register fixture model: %w", err)
	}
	// The mix's make-up is the same for every seed — each batch size from
	// 1 to 16 rows equally often on each endpoint, addressed each way —
	// so a seed changes which rows are sent and in what order, never how
	// much work the mix asks for.
	for i := 0; i < numProbes; i++ {
		p := probe{label: i%2 == 1, x: f.pick(f.rows, 1+(i/4)%maxProbeRows)}
		if i%4 >= 2 {
			p.model = registryModel
		}
		p.want = forwardReference(f.net, p.x)
		b.probes = append(b.probes, p)
	}
	f.rng.Shuffle(numProbes, func(i, j int) { b.probes[i], b.probes[j] = b.probes[j], b.probes[i] })
	return b, nil
}

type probeJSONSystem struct {
	b        *probeJSON
	tr       *tracer
	srv      *server.Server
	gw       *gateway.Gateway
	dhs, ghs *loopback
	gtp, ctp *http.Transport
	c        *client.Client
	// versions maps the addressed model ("" = default slot) to the
	// generation that must answer it.
	versions map[string]int64
	next     atomic.Int64
}

func (b *probeJSON) boot(tr *tracer) (system, time.Duration, error) {
	start := time.Now()
	srv, err := server.New(server.Options{
		ModelPath:     b.f.modelPath,
		RegistryDir:   b.regDir,
		RecordTraffic: recordEvery,
	})
	if err != nil {
		return nil, 0, err
	}
	s := &probeJSONSystem{b: b, tr: tr, srv: srv, gtp: newTransport(), ctp: newTransport()}
	info, err := srv.Registry().Get(registryModel)
	if err != nil {
		srv.Close()
		return nil, 0, err
	}
	s.versions = map[string]int64{"": srv.ModelVersion(), registryModel: info.Generation}
	if s.dhs, err = serveLoopback(&traceHandler{t: tr, name: "server", parent: "gateway.rt", next: srv}); err != nil {
		srv.Close()
		return nil, 0, err
	}
	s.gw, err = gateway.New(gateway.Options{
		Replicas: []string{s.dhs.url},
		NewClient: func(url string) *client.Client {
			c := client.New(url)
			c.HTTPClient = tracedClient(tr, "gateway.rt", "gateway", s.gtp)
			return c
		},
	})
	if err != nil {
		s.dhs.close()
		srv.Close()
		return nil, 0, err
	}
	if s.ghs, err = serveLoopback(&traceHandler{t: tr, name: "gateway", parent: "client.rt", next: s.gw}); err != nil {
		s.gw.Close()
		s.dhs.close()
		srv.Close()
		return nil, 0, err
	}
	s.c = client.New(s.ghs.url)
	s.c.Retries = -1
	s.c.HTTPClient = tracedClient(tr, "client.rt", "sdk", s.ctp)
	if _, _, err := s.op(context.Background(), "setup", 0); err != nil {
		s.close()
		return nil, 0, fmt.Errorf("first answer: %w", err)
	}
	return s, time.Since(start), nil
}

func (s *probeJSONSystem) op(ctx context.Context, id string, _ int) (int, time.Duration, error) {
	p := s.b.probes[int(s.next.Add(1))%numProbes]
	ctx = obs.WithRequestID(ctx, id)
	var (
		verdicts []client.Verdict
		labels   []int
		version  int64
		err      error
	)
	start := time.Now()
	if p.label {
		labels, version, err = s.c.LabelVersionModel(ctx, p.model, p.x)
	} else {
		verdicts, version, err = s.c.ScoreModel(ctx, p.model, p.x)
	}
	lat := time.Since(start)
	s.tr.record(id, "sdk", "", start)
	if err != nil {
		return 0, lat, err
	}
	if want := s.versions[p.model]; version != want {
		return 0, lat, fmt.Errorf("model %q answered by generation %d, want %d", p.model, version, want)
	}
	if p.label {
		err = checkLabels(labels, p.want)
	} else {
		err = checkVerdicts(verdicts, p.want)
	}
	if err != nil {
		return 0, lat, err
	}
	return p.x.Rows, lat, nil
}

func (s *probeJSONSystem) scrape() ([]byte, error) {
	return scrapeURL(&http.Client{Transport: s.gtp}, s.dhs.url)
}

func (s *probeJSONSystem) close() {
	s.ghs.close()
	s.gw.Close()
	s.dhs.close()
	s.srv.Close()
	s.gtp.CloseIdleConnections()
	s.ctp.CloseIdleConnections()
}

func (b *probeJSON) layers(system, []span, int) (map[string]float64, error) {
	inputs := make([]*tensor.Matrix, 0, numProbes)
	for _, p := range b.probes {
		inputs = append(inputs, p.x)
	}
	return engineReplays(b.f.net, inputs)
}
