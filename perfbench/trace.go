package main

import (
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"malevade/internal/obs"
)

// The benchmark's tracing is done entirely from outside the program: spans
// are recorded around the calls the benchmark makes into each module and at
// the hooks the modules already expose (an http.RoundTripper on a client, an
// http.Handler around a server, campaign.Options funcs and the campaign
// Sink). Spans of one operation share its op id, which travels between
// tiers as the X-Malevade-Request-Id header the SDK and gateway already
// propagate.

// span is one timed interval at a layer boundary.
type span struct {
	// op is the operation id shared by every span of one operation; ""
	// marks a span that cannot be attributed to one (probes, scrapes, and
	// the campaign engine's internal calls, which carry no op id).
	op string
	// name is the boundary ("sdk", "client.rt", "gateway", "server", …);
	// parent is the boundary it nests in ("" for an operation's root).
	name, parent string
	// start and end are offsets from the tracer's epoch.
	start, end time.Duration
	// reqBytes and respBytes are body bytes on the wire (round trips only).
	reqBytes, respBytes int64
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer keeps spans in memory while it is on; the run summarises them when
// it ends. A nil or switched-off tracer makes every wrapper a pass-through,
// so the untraced and traced runs build the identical stack.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// since converts a clock reading to an offset from the epoch.
func (t *tracer) since(at time.Time) time.Duration { return at.Sub(t.epoch) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// record adds a span from start to now, when tracing is on.
func (t *tracer) record(op, name, parent string, start time.Time) {
	if !t.enabled() {
		return
	}
	t.add(span{op: op, name: name, parent: parent, start: t.since(start), end: t.since(time.Now())})
}

// stop switches tracing off and returns every span recorded so far.
func (t *tracer) stop() []span {
	t.on.Store(false)
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// traceTransport records one span per HTTP round trip, from the request
// leaving the caller until the response body has been read to its end (or
// closed, if that comes first), with the body bytes sent and received. The
// caller's work between reading the body and closing it, such as decoding
// the answer, stays outside the round trip.
type traceTransport struct {
	t            *tracer
	name, parent string
	next         http.RoundTripper
}

func (tt *traceTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !tt.t.enabled() {
		return tt.next.RoundTrip(req)
	}
	start := time.Now()
	resp, err := tt.next.RoundTrip(req)
	sp := span{
		op:       req.Header.Get(obs.RequestIDHeader),
		name:     tt.name,
		parent:   tt.parent,
		start:    tt.t.since(start),
		reqBytes: max(req.ContentLength, 0),
	}
	if err != nil {
		sp.end = tt.t.since(time.Now())
		tt.t.add(sp)
		return nil, err
	}
	resp.Body = &tracedBody{ReadCloser: resp.Body, t: tt.t, span: sp}
	return resp, nil
}

// tracedBody counts response bytes and ends its round trip's span at the
// first Read that reports io.EOF, or at Close if that comes first.
type tracedBody struct {
	io.ReadCloser
	t    *tracer
	span span
	once sync.Once
}

func (b *tracedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.span.respBytes += int64(n)
	if err == io.EOF {
		b.end()
	}
	return n, err
}

func (b *tracedBody) Close() error {
	b.end()
	return b.ReadCloser.Close()
}

func (b *tracedBody) end() {
	b.once.Do(func() {
		b.span.end = b.t.since(time.Now())
		b.t.add(b.span)
	})
}

// traceHandler records one span per request a server handles, from the
// handler being entered until it returns.
type traceHandler struct {
	t            *tracer
	name, parent string
	next         http.Handler
}

func (h *traceHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.t.enabled() {
		h.next.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	h.next.ServeHTTP(w, r)
	h.t.record(r.Header.Get(obs.RequestIDHeader), h.name, h.parent, start)
}

// unionLength is the total length covered by a set of intervals, counting
// overlapping stretches once.
func unionLength(iv [][2]time.Duration) time.Duration {
	if len(iv) == 0 {
		return 0
	}
	sorted := append([][2]time.Duration(nil), iv...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a][0] < sorted[b][0] })
	var total time.Duration
	cur := sorted[0]
	for _, next := range sorted[1:] {
		if next[0] <= cur[1] {
			cur[1] = max(cur[1], next[1])
			continue
		}
		total += cur[1] - cur[0]
		cur = next
	}
	return total + cur[1] - cur[0]
}

// selfTimes sums, per boundary name, the self time of every attributable
// span: its duration minus the union of its children's intervals, each
// clipped to the span. A span's children are the spans of the same op whose
// parent names its boundary; only direct children count, so a grandchild is
// already inside its parent's interval.
func selfTimes(spans []span) map[string]time.Duration {
	byOp := make(map[string][]span)
	for _, s := range spans {
		if s.op != "" {
			byOp[s.op] = append(byOp[s.op], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, op := range byOp {
		for _, s := range op {
			var kids [][2]time.Duration
			for _, c := range op {
				if c.parent != s.name {
					continue
				}
				lo, hi := max(c.start, s.start), min(c.end, s.end)
				if lo < hi {
					kids = append(kids, [2]time.Duration{lo, hi})
				}
			}
			out[s.name] += s.dur() - unionLength(kids)
		}
	}
	return out
}

// spanTotal sums one boundary's spans.
type spanTotal struct {
	n                   int
	dur                 time.Duration
	reqBytes, respBytes int64
}

// spanTotals sums span durations and wire bytes per boundary name. With
// attributable set it skips spans no operation owns (the gateway's health
// probes, metric scrapes).
func spanTotals(spans []span, attributable bool) map[string]spanTotal {
	out := make(map[string]spanTotal)
	for _, s := range spans {
		if attributable && s.op == "" {
			continue
		}
		t := out[s.name]
		t.n++
		t.dur += s.dur()
		t.reqBytes += s.reqBytes
		t.respBytes += s.respBytes
		out[s.name] = t
	}
	return out
}
