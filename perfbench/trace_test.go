package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"malevade/internal/obs"
)

func iv(a, b int) [2]time.Duration {
	return [2]time.Duration{time.Duration(a) * time.Millisecond, time.Duration(b) * time.Millisecond}
}

func sp(op, name, parent string, a, b int) span {
	i := iv(a, b)
	return span{op: op, name: name, parent: parent, start: i[0], end: i[1]}
}

func TestUnionLength(t *testing.T) {
	for _, c := range []struct {
		in   [][2]time.Duration
		want int
	}{
		{nil, 0},
		{[][2]time.Duration{iv(1, 4)}, 3},
		{[][2]time.Duration{iv(3, 8), iv(1, 4)}, 7},           // overlapping, unsorted
		{[][2]time.Duration{iv(1, 9), iv(2, 3), iv(4, 5)}, 8}, // nested
		{[][2]time.Duration{iv(1, 2), iv(5, 7)}, 3},           // disjoint
		{[][2]time.Duration{iv(1, 2), iv(2, 3)}, 2},           // touching
	} {
		if got := unionLength(c.in); got != time.Duration(c.want)*time.Millisecond {
			t.Errorf("unionLength(%v) = %v, want %dms", c.in, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		// Op 1: an SDK call whose two round trips overlap (3–4) and whose
		// first round trip carries a server span; one round trip runs
		// past the call's end and is clipped to it.
		sp("op1", "sdk", "", 0, 10),
		sp("op1", "client.rt", "sdk", 1, 4),
		sp("op1", "client.rt", "sdk", 3, 12),
		sp("op1", "server", "client.rt", 2, 3),
		// Op 2 shares boundary names but none of op 1's intervals.
		sp("op2", "sdk", "", 0, 5),
		sp("op2", "client.rt", "sdk", 1, 3),
		// Unattributed spans (health probes) are never anyone's child.
		sp("", "client.rt", "sdk", 0, 10),
	}
	self := selfTimes(spans)
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	// op1 sdk: 10 − union{[1,4],[3,10]} = 10 − 9 = 1; op2 sdk: 5 − 2 = 3.
	if got := self["sdk"]; got != ms(4) {
		t.Errorf("sdk self = %v, want 4ms", got)
	}
	// op1: rt [1,4] minus server [2,3] = 2; rt [3,12] has no child in
	// range = 9; op2: rt [1,3] = 2. The grandchild server span is not
	// subtracted from sdk a second time.
	if got := self["client.rt"]; got != ms(13) {
		t.Errorf("client.rt self = %v, want 13ms", got)
	}
	if got := self["server"]; got != ms(1) {
		t.Errorf("server self = %v, want 1ms", got)
	}
	tot := spanTotals(spans, true)
	if got := tot["client.rt"]; got.n != 3 || got.dur != ms(14) {
		t.Errorf("attributable client.rt totals = %+v, want 3 spans, 14ms", got)
	}
	if got := spanTotals(spans, false)["client.rt"]; got.n != 4 {
		t.Errorf("all client.rt spans = %d, want 4", got.n)
	}
}

// TestTracedHTTPBoundaries checks that the round-trip and handler wrappers
// record one span each per request, tagged with the request-id header, with
// the handler nested inside the round trip and the body bytes counted; that
// the round trip ends when the body is read to its end, not when the caller
// closes it after working on the answer; and that a switched-off tracer
// records nothing.
func TestTracedHTTPBoundaries(t *testing.T) {
	tr := newTracer()
	srv := httptest.NewServer(&traceHandler{t: tr, name: "server", parent: "client.rt",
		next: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			io.WriteString(w, "answer")
		})})
	defer srv.Close()
	c := tracedClient(tr, "client.rt", "sdk", http.DefaultTransport)
	// post sends one request, reads the answer to its end, and returns when
	// it finished reading; it then works for a while, as a caller decoding
	// the answer would, before it closes the body.
	post := func(id string) time.Duration {
		req, err := http.NewRequest(http.MethodPost, srv.URL, strings.NewReader("0123456789"))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(obs.RequestIDHeader, id)
		resp, err := c.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		read := tr.since(time.Now())
		time.Sleep(20 * time.Millisecond)
		return read
	}
	post("untraced")
	tr.on.Store(true)
	read := post("op-1")
	spans := tr.stop()
	post("after")
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2: %+v", len(spans), spans)
	}
	var rt, handler span
	for _, s := range spans {
		if s.op != "op-1" {
			t.Errorf("span %s has op %q", s.name, s.op)
		}
		switch s.name {
		case "client.rt":
			rt = s
		case "server":
			handler = s
		}
	}
	if rt.reqBytes != 10 || rt.respBytes != int64(len("answer")) {
		t.Errorf("round trip bytes = %d/%d, want 10/6", rt.reqBytes, rt.respBytes)
	}
	if handler.start < rt.start || handler.end > rt.end {
		t.Errorf("handler [%v,%v] not inside round trip [%v,%v]", handler.start, handler.end, rt.start, rt.end)
	}
	if rt.end > read {
		t.Errorf("round trip ended at %v, after the body was read at %v", rt.end, read)
	}
	if got := tr.stop(); len(got) != 0 {
		t.Errorf("stopped tracer recorded %d spans", len(got))
	}
}
