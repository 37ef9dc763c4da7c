package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"malevade/internal/attack"
	"malevade/internal/campaign"
	"malevade/internal/campaign/spec"
	"malevade/internal/nn"
	"malevade/internal/obs"
	"malevade/internal/serve"
	"malevade/internal/store"
	"malevade/internal/tensor"
)

// The two job workloads run the asynchronous engines in-process, wired as
// the daemon wires them, with no HTTP tier: campaign crafts, judges and
// stores evasion attacks; mine sweeps a recorded traffic log. An operation
// is one job, from submit to terminal state.

// jobTimeout bounds one job; a job that runs past it is a failed op.
const jobTimeout = time.Minute

// campaign: two closed-loop generators each keep one campaign in flight on
// the engine's two workers. Every campaign is white-box JSMA (θ=0.1,
// γ=0.02) over 8 explicit malware rows in two batches of 4, judged through
// a serve.Scorer and streamed into a results store. Per-sample answers must
// equal the same attack run in-process on the same rows. A campaign this
// size takes about 110 ms on a 2-vCPU Xeon, so a 20 s run holds well over
// 100.

const (
	campaignRows  = 8
	campaignBatch = 4
	populations   = 8
)

var campaignAttack = attack.Config{Kind: attack.KindJSMA, Theta: 0.1, Gamma: 0.02}

type campaignBench struct {
	f    *fixture
	pops [][][]float64
	refs [][]spec.SampleResult
	// boots numbers the fresh store directory each boot gets.
	boots int
}

// candidateRows is the pool of detected malware the populations are drawn
// from.
const candidateRows = 64

func prepareCampaign(f *fixture) (bench, error) {
	// JSMA steps a whole batch until its last active row evades or the
	// feature budget runs out, so the rows that resist the attack decide
	// how much crafting a campaign does. Every batch therefore starts with
	// one row that resists it in the reference run: each batch runs the
	// full budget, and a seed changes which rows are attacked but never how
	// much work a campaign is.
	pool := f.pick(f.malware, candidateRows)
	half := candidateRows / 2 * pool.Cols
	poolRefs, err := campaignReferences(f.modelPath, []*tensor.Matrix{
		tensor.FromSlice(candidateRows/2, pool.Cols, pool.Data[:half]),
		tensor.FromSlice(candidateRows/2, pool.Cols, pool.Data[half:]),
	})
	if err != nil {
		return nil, err
	}
	var resist []int
	for h, refs := range poolRefs {
		for _, r := range refs {
			if !r.CraftEvaded {
				resist = append(resist, h*candidateRows/2+r.Index)
			}
		}
	}
	if len(resist) == 0 {
		return nil, fmt.Errorf("no malware row resists the attack; batches would end early")
	}
	b := &campaignBench{f: f}
	var xs []*tensor.Matrix
	for p := 0; p < populations; p++ {
		x := tensor.New(campaignRows, pool.Cols)
		for i := 0; i < campaignRows; i++ {
			src := f.rng.Intn(candidateRows)
			if i%campaignBatch == 0 {
				src = resist[f.rng.Intn(len(resist))]
			}
			copy(x.Row(i), pool.Row(src))
		}
		xs = append(xs, x)
		b.pops = append(b.pops, rowSlices(x))
	}
	if b.refs, err = campaignReferences(f.modelPath, xs); err != nil {
		return nil, err
	}
	return b, nil
}

// campaignReferences runs campaignReference over each population, on two
// goroutines: the references are the costliest fixture work (JSMA takes
// milliseconds per row at full width).
func campaignReferences(modelPath string, xs []*tensor.Matrix) ([][]spec.SampleResult, error) {
	refs := make([][]spec.SampleResult, len(xs))
	errs := make([]error, len(xs))
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := w; p < len(xs); p += 2 {
				refs[p], errs[p] = campaignReference(modelPath, xs[p])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return refs, nil
}

// campaignReference runs a campaign's attack in-process, batch by batch on
// a private copy of the crafting model as the engine does, and judges each
// batch's originals and adversarials by serial Network.Forward.
func campaignReference(modelPath string, x *tensor.Matrix) ([]spec.SampleResult, error) {
	net, err := nn.LoadFile(modelPath)
	if err != nil {
		return nil, err
	}
	var out []spec.SampleResult
	for start := 0; start < x.Rows; start += campaignBatch {
		end := min(start+campaignBatch, x.Rows)
		n := end - start
		bx := tensor.FromSlice(n, x.Cols, x.Data[start*x.Cols:end*x.Cols])
		atk, err := campaignAttack.Build(net, nil)
		if err != nil {
			return nil, err
		}
		results := atk.Run(bx)
		adv := attack.AdvMatrix(results)
		both := tensor.New(2*n, x.Cols)
		copy(both.Data, bx.Data)
		copy(both.Data[n*x.Cols:], adv.Data)
		labels := forwardReference(net, both).classes
		for i := 0; i < n; i++ {
			out = append(out, spec.SampleResult{
				Index:            start + i,
				Generation:       1,
				BaselineDetected: labels[i] == 1,
				Evaded:           labels[n+i] == 0,
				CraftEvaded:      results[i].Evaded,
				L2:               results[i].L2,
				ModifiedFeatures: len(results[i].ModifiedFeatures),
			})
		}
	}
	return out, nil
}

type campaignSystem struct {
	b      *campaignBench
	tr     *tracer
	reg    *obs.Registry
	st     *store.Store
	sc     *serve.Scorer
	sink   *campaignSink
	target *campaignTarget
	eng    *campaign.Engine
	next   atomic.Int64
	// evaded holds each population's evasion count from its latest
	// checked answer.
	mu     sync.Mutex
	evaded [populations]int
}

func (b *campaignBench) boot(tr *tracer) (system, time.Duration, error) {
	b.boots++
	dir := filepath.Join(b.f.dir, fmt.Sprintf("campaign-store-%d", b.boots))
	start := time.Now()
	s := &campaignSystem{b: b, tr: tr, reg: obs.NewRegistry()}
	var err error
	if s.st, err = store.Open(store.Options{Dir: dir, Obs: s.reg}); err != nil {
		return nil, 0, err
	}
	net, err := nn.LoadFile(b.f.modelPath)
	if err != nil {
		s.st.Close()
		return nil, 0, err
	}
	s.sc = serve.New(net, 1, serve.Options{Obs: s.reg})
	s.sink = &campaignSink{t: tr, next: s.st, done: make(map[string]chan time.Time)}
	s.target = &campaignTarget{t: tr, next: &campaign.DetectorTarget{Det: s.sc, Generation: 1}}
	modelPath := b.f.modelPath
	s.eng = campaign.NewEngine(campaign.Options{
		Workers:     2,
		Sink:        s.sink,
		LocalTarget: s.target,
		CraftModel: func() (*nn.Network, error) {
			defer tr.record("", "model_load", "job", time.Now())
			return nn.LoadFile(modelPath)
		},
		Obs: s.reg,
	})
	snap, err := s.eng.Submit(b.spec(0))
	setup := time.Since(start)
	if err != nil {
		s.close()
		return nil, 0, err
	}
	if _, err := s.finish(context.Background(), "setup", 0, snap.ID, start); err != nil {
		s.close()
		return nil, 0, fmt.Errorf("first campaign: %w", err)
	}
	return s, setup, nil
}

func (b *campaignBench) spec(pop int) campaign.Spec {
	return campaign.Spec{Attack: campaignAttack, Rows: b.pops[pop], BatchSize: campaignBatch}
}

func (s *campaignSystem) op(ctx context.Context, id string, _ int) (int, time.Duration, error) {
	pop := int(s.next.Add(1)) % populations
	start := time.Now()
	snap, err := s.eng.Submit(s.b.spec(pop))
	if err != nil {
		return 0, time.Since(start), err
	}
	end, err := s.finish(ctx, id, pop, snap.ID, start)
	if err != nil {
		return 0, time.Since(start), err
	}
	return campaignRows, end.Sub(start), nil
}

// finish waits for campaign cid's terminal record to be sealed in the
// store, records its job spans, checks its per-sample results against the
// reference, and returns when it was sealed.
func (s *campaignSystem) finish(ctx context.Context, id string, pop int, cid string, start time.Time) (time.Time, error) {
	ctx, cancel := context.WithTimeout(ctx, jobTimeout)
	defer cancel()
	defer s.sink.forget(cid)
	var end time.Time
	select {
	case end = <-s.sink.sealed(cid):
	case <-ctx.Done():
		return end, fmt.Errorf("campaign %s: %w", cid, ctx.Err())
	}
	snap, ok := s.eng.Get(cid, 0)
	if !ok {
		return end, fmt.Errorf("campaign %s vanished", cid)
	}
	if s.tr.enabled() {
		s.tr.add(span{op: id, name: "job", start: s.tr.since(start), end: s.tr.since(end)})
		s.tr.add(span{op: id, name: "queue", parent: "job",
			start: s.tr.since(snap.SubmittedAt), end: s.tr.since(snap.StartedAt)})
	}
	if snap.Status != campaign.StatusDone {
		return end, fmt.Errorf("campaign %s ended %s: %s", cid, snap.Status, snap.Error)
	}
	if !reflect.DeepEqual(snap.Results, s.b.refs[pop]) {
		return end, fmt.Errorf("campaign %s: per-sample results differ from the in-process attack", cid)
	}
	evaded := 0
	for _, r := range snap.Results {
		if r.Evaded {
			evaded++
		}
	}
	s.mu.Lock()
	s.evaded[pop] = evaded
	s.mu.Unlock()
	return end, nil
}

func (s *campaignSystem) scrape() ([]byte, error) {
	var buf bytes.Buffer
	err := s.reg.WriteText(&buf)
	return buf.Bytes(), err
}

func (s *campaignSystem) close() {
	s.eng.Close()
	_ = s.st.Close() // a torn-down fixture store; nothing reads it again
	s.sc.Close()
}

func (b *campaignBench) layers(sys system, spans []span, ops int) (map[string]float64, error) {
	s := sys.(*campaignSystem)
	// The engine's calls carry no op id, so the job's children are summed
	// over the phase: each lies inside exactly one job, and the phase
	// ends only when every job in it has finished. The first append
	// ("append.submit") runs while the job is being submitted, inside its
	// queue wait, so it is not subtracted from the job's self time again.
	tot := spanTotals(spans, false)
	self := selfTimes(spans)
	n := float64(ops)
	out, err := engineReplays(b.f.net, s.target.captured())
	if err != nil {
		return nil, err
	}
	running := self["job"] - tot["model_load"].dur - tot["judge"].dur - tot["append"].dur
	out["campaign.craft_ms"] = ms(running) / float64(max(tot["judge"].n, 1))
	out["campaign.model_load_ms"] = ms(tot["model_load"].dur) / n
	out["campaign.judge_ms"] = ms(tot["judge"].dur) / n
	out["store.append_ms"] = ms(tot["append"].dur+tot["append.submit"].dur) / n
	out["campaign.queue_wait_ms"] = ms(tot["queue"].dur) / n
	s.mu.Lock()
	evaded := 0
	for _, e := range s.evaded {
		evaded += e
	}
	s.mu.Unlock()
	out["campaign.evaded_ratio"] = float64(evaded) / float64(populations*campaignRows)
	return out, nil
}

// campaignSink is the engine's Sink: it forwards to the results store,
// records each call as an "append" span, and tells the generator when a
// campaign's terminal record is sealed.
type campaignSink struct {
	t    *tracer
	next campaign.Sink
	mu   sync.Mutex
	// done holds one channel per campaign, buffered for its one send: the
	// time its terminal record was sealed.
	done map[string]chan time.Time
}

func (s *campaignSink) sealed(id string) chan time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.done[id]
	if !ok {
		c = make(chan time.Time, 1)
		s.done[id] = c
	}
	return c
}

func (s *campaignSink) forget(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.done, id)
}

func (s *campaignSink) CampaignStarted(id string, sp campaign.Spec, submitted time.Time) error {
	defer s.t.record("", "append.submit", "queue", time.Now())
	return s.next.CampaignStarted(id, sp, submitted)
}

func (s *campaignSink) CampaignSamples(id string, results []campaign.SampleResult) error {
	defer s.t.record("", "append", "job", time.Now())
	return s.next.CampaignSamples(id, results)
}

func (s *campaignSink) CampaignFinished(id string, snap campaign.Snapshot) error {
	start := time.Now()
	err := s.next.CampaignFinished(id, snap)
	s.t.record("", "append", "job", start)
	s.sealed(id) <- time.Now()
	return err
}

// campaignTarget is the engine's LocalTarget: it records each judged batch
// as a "judge" span and keeps the first few inputs for the traced run's
// engine replays.
type campaignTarget struct {
	t    *tracer
	next campaign.Target
	mu   sync.Mutex
	kept []*tensor.Matrix
}

const keptJudgeInputs = 32

func (c *campaignTarget) LabelBatch(ctx context.Context, x *tensor.Matrix) ([]int, int64, error) {
	if !c.t.enabled() {
		return c.next.LabelBatch(ctx, x)
	}
	c.mu.Lock()
	if len(c.kept) < keptJudgeInputs {
		c.kept = append(c.kept, x.Clone())
	}
	c.mu.Unlock()
	defer c.t.record("", "judge", "job", time.Now())
	return c.next.LabelBatch(ctx, x)
}

func (c *campaignTarget) captured() []*tensor.Matrix {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.kept
}

// mine: one closed-loop generator runs one store.Miner sweep at a time over
// a store reopened on a pre-recorded traffic log of 4096 rows (16 MB), which
// a sweep reads in about 70 ms on a 2-vCPU Xeon, so a 20 s run holds well
// over 100.
// Every sweep's findings must equal store.SweepTraffic over the generated
// rows.

const (
	trafficRows = 4096
	// trafficModels × trafficGenerations is the log's model mix.
	trafficModels      = 2
	trafficGenerations = 3
)

var mineSpec = store.MineSpec{Band: 0.15, MaxFindings: 256}

type mineBench struct {
	f    *fixture
	dir  string
	want []store.Finding
}

// trafficFixture generates the recorded traffic: corpus rows, each with a
// few extra API features switched on so nearly every row is distinct,
// answered by two models over three generations each, with planted
// signals — rows re-recorded under a later generation with the opposite
// verdict (generation flips), clean verdicts just under the boundary, and
// malware verdicts just over it.
func trafficFixture(f *fixture) []store.TrafficRow {
	r := f.rng
	var flips []store.TrafficRow
	rows := make([]store.TrafficRow, 0, trafficRows)
	for i := 0; i < trafficRows; i++ {
		model := r.Intn(trafficModels)
		row := store.TrafficRow{
			Time:       time.Unix(1_700_000_000+int64(i), 0).UTC(),
			Endpoint:   "score",
			Model:      fmt.Sprintf("model-%d", model),
			Generation: int64(1 + model*trafficGenerations + r.Intn(trafficGenerations-1)),
			HasProb:    true,
		}
		u := r.Float64()
		switch {
		case u < 0.005 && len(flips) > 0:
			// Re-record an earlier row under the next generation, with
			// the opposite verdict.
			prev := flips[r.Intn(len(flips))]
			row.Model, row.Row = prev.Model, prev.Row
			row.Generation = prev.Generation + 1
			row.Class = 1 - prev.Class
			row.Prob = 1 - prev.Prob
		case u < 0.01:
			row.Class, row.Prob = 0, 0.36+0.13*r.Float64()
		case u < 0.015:
			row.Class, row.Prob = 1, 0.51+0.1*r.Float64()
		case u < 0.115:
			row.Endpoint, row.HasProb = "label", false
			row.Class = r.Intn(2)
		default:
			row.Class = r.Intn(2)
			row.Prob = 0.9 + 0.0999*r.Float64()
			if row.Class == 0 {
				row.Prob = 1 - row.Prob
			}
		}
		if row.Row == nil {
			row.Row = append([]float64(nil), f.rows.Row(r.Intn(f.rows.Rows))...)
			for k := 0; k < 4; k++ {
				row.Row[r.Intn(len(row.Row))] = 1
			}
			if u >= 0.115 && len(flips) < 512 {
				flips = append(flips, row)
			}
		}
		rows = append(rows, row)
	}
	return rows
}

func prepareMine(f *fixture) (bench, error) {
	b := &mineBench{f: f, dir: filepath.Join(f.dir, "traffic-store")}
	rows := trafficFixture(f)
	// One buffer large enough for the whole log: it is written once, at
	// Close.
	st, err := store.Open(store.Options{Dir: b.dir, TrafficFlushBytes: 64 << 20})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		if err := st.RecordTraffic(row); err != nil {
			st.Close()
			return nil, err
		}
	}
	if err := st.Close(); err != nil {
		return nil, err
	}
	b.want = store.SweepTraffic(rows, mineSpec)
	if len(b.want) == 0 {
		return nil, fmt.Errorf("traffic fixture plants no findings")
	}
	return b, nil
}

type mineSystem struct {
	b     *mineBench
	tr    *tracer
	reg   *obs.Registry
	st    *store.Store
	miner *store.Miner
	// findings is the size of the latest checked report.
	findings atomic.Int64
}

func (b *mineBench) boot(tr *tracer) (system, time.Duration, error) {
	start := time.Now()
	s := &mineSystem{b: b, tr: tr, reg: obs.NewRegistry()}
	var err error
	if s.st, err = store.Open(store.Options{Dir: b.dir, Obs: s.reg}); err != nil {
		return nil, 0, err
	}
	s.miner = store.NewMiner(s.st, store.MinerOptions{})
	id, err := s.miner.Submit(mineSpec)
	setup := time.Since(start)
	if err != nil {
		s.close()
		return nil, 0, err
	}
	if _, _, err := s.finish(context.Background(), "setup", id, start); err != nil {
		s.close()
		return nil, 0, fmt.Errorf("first sweep: %w", err)
	}
	return s, setup, nil
}

func (s *mineSystem) op(ctx context.Context, id string, _ int) (int, time.Duration, error) {
	start := time.Now()
	jid, err := s.miner.Submit(mineSpec)
	if err != nil {
		return 0, time.Since(start), err
	}
	swept, end, err := s.finish(ctx, id, jid, start)
	if err != nil {
		return 0, time.Since(start), err
	}
	return swept, end.Sub(start), nil
}

// pollEvery is how often the generator polls a running sweep; it bounds
// how late a sweep's end is seen.
const pollEvery = time.Millisecond

// finish polls mine job jid to its terminal state, records its job spans,
// checks its findings against the reference, and returns the rows swept and
// when the terminal state was seen.
func (s *mineSystem) finish(ctx context.Context, id, jid string, start time.Time) (int, time.Time, error) {
	ctx, cancel := context.WithTimeout(ctx, jobTimeout)
	defer cancel()
	var (
		snap store.MineSnapshot
		end  time.Time
	)
	for {
		var err error
		if snap, err = s.miner.Get(jid); err != nil {
			return 0, end, err
		}
		if snap.Status.Terminal() {
			end = time.Now()
			break
		}
		select {
		case <-ctx.Done():
			return 0, end, fmt.Errorf("sweep %s: %w", jid, ctx.Err())
		case <-time.After(pollEvery):
		}
	}
	if s.tr.enabled() {
		s.tr.add(span{op: id, name: "job", start: s.tr.since(start), end: s.tr.since(end)})
		s.tr.add(span{op: id, name: "queue", parent: "job",
			start: s.tr.since(snap.SubmittedAt), end: s.tr.since(snap.StartedAt)})
	}
	if snap.Status != spec.StatusDone {
		return 0, end, fmt.Errorf("sweep %s ended %s: %s", jid, snap.Status, snap.Error)
	}
	if snap.Swept != trafficRows {
		return 0, end, fmt.Errorf("sweep %s swept %d rows, want %d", jid, snap.Swept, trafficRows)
	}
	if !reflect.DeepEqual(snap.Findings, s.b.want) {
		return 0, end, fmt.Errorf("sweep %s: findings differ from store.SweepTraffic over the fixture rows", jid)
	}
	s.findings.Store(int64(len(snap.Findings)))
	return snap.Swept, end, nil
}

func (s *mineSystem) scrape() ([]byte, error) {
	var buf bytes.Buffer
	err := s.reg.WriteText(&buf)
	return buf.Bytes(), err
}

func (s *mineSystem) close() {
	s.miner.Close()
	_ = s.st.Close() // reopened by the next boot; it wrote nothing
}

func (b *mineBench) layers(sys system, spans []span, ops int) (map[string]float64, error) {
	s := sys.(*mineSystem)
	var rows []store.TrafficRow
	read, err := timeEach(3, func(int) error {
		var err error
		rows, err = s.st.Traffic()
		return err
	})
	if err != nil {
		return nil, err
	}
	sweep, _ := timeEach(3, func(int) error { store.SweepTraffic(rows, mineSpec); return nil })
	return map[string]float64{
		"store.read_ms":      read,
		"store.sweep_ms":     sweep,
		"mine.queue_wait_ms": ms(spanTotals(spans, true)["queue"].dur) / float64(ops),
		"mine.findings":      float64(s.findings.Load()),
	}, nil
}
