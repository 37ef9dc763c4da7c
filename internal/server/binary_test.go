package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"malevade/internal/defense"
	"malevade/internal/registry"
	"malevade/internal/serve"
	"malevade/internal/wire"
)

func postFrame(t *testing.T, s *Server, path string, frame []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(frame))
	req.Header.Set("Content-Type", wire.ContentTypeRowsF32)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

func mustFrame32(t *testing.T, model string, rows, cols int, values []float32) []byte {
	t.Helper()
	raw, err := wire.AppendFrame(nil, model, rows, cols, values)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// frameRows are exactly float32-representable, so the float64-fallback
// paths (defended model, BinaryPrecision float64) must answer
// bit-identically to the JSON path over the same values.
func frameRows(rows, cols int) ([]float32, [][]float64) {
	f32 := make([]float32, rows*cols)
	f64 := make([][]float64, rows)
	rng := uint64(77)
	for i := range f64 {
		f64[i] = make([]float64, cols)
	}
	for i := range f32 {
		rng = rng*6364136223846793005 + 1442695040888963407
		v := float32(rng%1024) / 1024
		f32[i] = v
		f64[i/cols][i%cols] = float64(v)
	}
	return f32, f64
}

func decodeScore(t *testing.T, w *httptest.ResponseRecorder) ScoreResponse {
	t.Helper()
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp ScoreResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestScoreBinaryFrame: a binary-framed batch answers the same verdicts
// as the identical JSON batch, within the float32 parity budget.
func TestScoreBinaryFrame(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	f32, f64 := frameRows(16, 3)
	jsonResp := decodeScore(t, postJSON(t, s, "/v1/score", scoreBody(f64)))
	binResp := decodeScore(t, postFrame(t, s, "/v1/score", mustFrame32(t, "", 16, 3, f32)))
	if binResp.ModelVersion != jsonResp.ModelVersion {
		t.Fatalf("model_version %d vs %d", binResp.ModelVersion, jsonResp.ModelVersion)
	}
	if len(binResp.Results) != len(jsonResp.Results) {
		t.Fatalf("%d results, want %d", len(binResp.Results), len(jsonResp.Results))
	}
	for i, r := range binResp.Results {
		ref := jsonResp.Results[i]
		if d := math.Abs(r.Prob - ref.Prob); d > 1e-3 {
			t.Errorf("row %d: prob %g vs %g (delta %g)", i, r.Prob, ref.Prob, d)
		}
		if r.Class != ref.Class && math.Abs(ref.Prob-0.5) >= 1e-3 {
			t.Errorf("row %d: confident class flipped (%d vs %d)", i, r.Class, ref.Class)
		}
	}
}

func TestLabelBinaryFrame(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	f32, f64 := frameRows(8, 3)
	jw := postJSON(t, s, "/v1/label", scoreBody(f64))
	bw := postFrame(t, s, "/v1/label", mustFrame32(t, "", 8, 3, f32))
	if jw.Code != http.StatusOK || bw.Code != http.StatusOK {
		t.Fatalf("statuses %d / %d: %s / %s", jw.Code, bw.Code, jw.Body, bw.Body)
	}
	var jr, br LabelResponse
	if err := json.Unmarshal(jw.Body.Bytes(), &jr); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(bw.Body.Bytes(), &br); err != nil {
		t.Fatal(err)
	}
	// The test model's verdicts are far from the boundary on these rows;
	// labels must agree outright.
	if len(br.Labels) != len(jr.Labels) {
		t.Fatalf("%d labels, want %d", len(br.Labels), len(jr.Labels))
	}
	for i := range br.Labels {
		if br.Labels[i] != jr.Labels[i] {
			t.Errorf("row %d: label %d vs %d", i, br.Labels[i], jr.Labels[i])
		}
	}
}

// TestScoreBinaryModelAddressed: the frame's model field routes exactly
// like the JSON "model" field — to the registry's live version, counting
// against that model — and unknown names answer 404 unknown_model.
func TestScoreBinaryModelAddressed(t *testing.T) {
	dir := t.TempDir()
	path, _ := saveTestNet(t, dir, "default.gob", []int{3, 8, 2}, 7)
	altPath, _ := saveTestNet(t, dir, "alt.gob", []int{3, 10, 2}, 23)
	s, err := New(Options{ModelPath: path, RegistryDir: dir + "/reg"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	info, err := s.Registry().Register(registry.RegisterRequest{Name: "alt", Path: altPath})
	if err != nil {
		t.Fatal(err)
	}
	f32, _ := frameRows(4, 3)

	resp := decodeScore(t, postFrame(t, s, "/v1/score", mustFrame32(t, "alt", 4, 3, f32)))
	if resp.ModelVersion == 1 {
		t.Fatalf("model-addressed frame answered by default generation %d", resp.ModelVersion)
	}
	_ = info

	w := postFrame(t, s, "/v1/score", mustFrame32(t, "nope", 4, 3, f32))
	if w.Code != http.StatusNotFound {
		t.Fatalf("unknown model: status %d: %s", w.Code, w.Body)
	}
	var env wire.Envelope
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || env.Code != wire.CodeUnknownModel {
		t.Fatalf("unknown model envelope %+v (err %v), want %s", env, err, wire.CodeUnknownModel)
	}

	// Per-model counters must move for binary traffic like JSON traffic.
	var stats StatsResponse
	sw := httptest.NewRecorder()
	s.ServeHTTP(sw, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if err := json.Unmarshal(sw.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.ModelRequests["alt"] != 1 {
		t.Fatalf("model_requests[alt] = %d, want 1 (stats %+v)", stats.ModelRequests["alt"], stats)
	}
}

// TestBinaryErrorTaxonomy walks the refusal matrix of the binary path:
// every malformed, oversized, or mis-typed request maps onto the wire
// taxonomy — no hangs, no panics, no undocumented statuses.
func TestBinaryErrorTaxonomy(t *testing.T) {
	s, _ := newTestServer(t, Options{MaxRows: 4, MaxBodyBytes: 4096})
	good := mustFrame32(t, "", 2, 3, make([]float32, 6))
	nan := make([]float32, 6)
	nan[4] = float32(math.NaN())
	bigBody := mustFrame32(t, "", 400, 3, make([]float32, 1200))

	cases := []struct {
		name     string
		frame    []byte
		ct       string
		status   int
		code     string
		contains string
	}{
		{"garbage", []byte("hello"), wire.ContentTypeRowsF32, 400, wire.CodeBadRequest, "truncated"},
		{"bad magic", append([]byte("XXXX"), good[4:]...), wire.ContentTypeRowsF32, 400, wire.CodeBadRequest, "magic"},
		{"truncated", good[:len(good)-2], wire.ContentTypeRowsF32, 400, wire.CodeBadRequest, "length"},
		{"trailing", append(append([]byte(nil), good...), 9), wire.ContentTypeRowsF32, 400, wire.CodeBadRequest, "length"},
		{"too many rows", mustFrame32(t, "", 5, 3, make([]float32, 15)), wire.ContentTypeRowsF32, 400, wire.CodeBadRequest, "exceeds limit"},
		{"width mismatch", mustFrame32(t, "", 2, 4, make([]float32, 8)), wire.ContentTypeRowsF32, 400, wire.CodeBadRequest, "features"},
		{"non-finite", mustFrame32(t, "", 2, 3, nan), wire.ContentTypeRowsF32, 400, wire.CodeBadRequest, "row 1 feature 1 is not finite"},
		{"oversized", bigBody, wire.ContentTypeRowsF32, 413, wire.CodeTooLarge, "exceeds"},
		{"wrong media type", good, "text/plain", 415, wire.CodeUnsupportedMedia, "unsupported Content-Type"},
		{"unparseable media type", good, ";;;", 415, wire.CodeUnsupportedMedia, "unparseable Content-Type"},
	}
	for _, tc := range cases {
		for _, path := range []string{"/v1/score", "/v1/label"} {
			req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(tc.frame))
			req.Header.Set("Content-Type", tc.ct)
			w := httptest.NewRecorder()
			s.ServeHTTP(w, req)
			if w.Code != tc.status {
				t.Fatalf("%s %s: status %d, want %d (%s)", tc.name, path, w.Code, tc.status, w.Body)
			}
			var env wire.Envelope
			if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
				t.Fatalf("%s %s: non-envelope error body %q", tc.name, path, w.Body)
			}
			if env.Code != tc.code {
				t.Fatalf("%s %s: code %q, want %q", tc.name, path, env.Code, tc.code)
			}
			if !strings.Contains(env.Error, tc.contains) {
				t.Fatalf("%s %s: message %q does not mention %q", tc.name, path, env.Error, tc.contains)
			}
		}
	}

	// The JSON paths must be untouched by the negotiation: explicit JSON
	// content type and no content type both still score.
	_, f64 := frameRows(2, 3)
	if w := postJSON(t, s, "/v1/score", scoreBody(f64)); w.Code != http.StatusOK {
		t.Fatalf("JSON content type: status %d: %s", w.Code, w.Body)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/score", strings.NewReader(scoreBody(f64)))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("absent content type: status %d: %s", w.Code, w.Body)
	}
}

// TestBinaryPrecisionVariants: every BinaryPrecision routes binary frames
// to a working scorer; float64 must answer bit-identically to JSON over
// float32-representable values, and an unknown precision (int8 among
// them) refuses to boot.
func TestBinaryPrecisionVariants(t *testing.T) {
	dir := t.TempDir()
	path, _ := saveTestNet(t, dir, "model.gob", []int{3, 8, 2}, 7)
	f32, f64 := frameRows(6, 3)
	var refResults []ScoreResult
	for _, precision := range []string{serve.PrecisionFloat64, serve.PrecisionFloat32} {
		s, err := New(Options{ModelPath: path, BinaryPrecision: precision})
		if err != nil {
			t.Fatal(err)
		}
		jsonResp := decodeScore(t, postJSON(t, s, "/v1/score", scoreBody(f64)))
		binResp := decodeScore(t, postFrame(t, s, "/v1/score", mustFrame32(t, "", 6, 3, f32)))
		if refResults == nil {
			refResults = jsonResp.Results
		}
		budget := 1e-3 // float32
		if precision == serve.PrecisionFloat64 {
			budget = 0 // exact: same engine, exactly representable inputs
		}
		for i, r := range binResp.Results {
			if d := math.Abs(r.Prob - refResults[i].Prob); d > budget {
				t.Errorf("%s row %d: prob %g vs %g (delta %g > %g)", precision, i, r.Prob, refResults[i].Prob, d, budget)
			}
		}
		s.Close()
	}
	for _, precision := range []string{"float16", "int8"} {
		if _, err := New(Options{ModelPath: path, BinaryPrecision: precision}); err == nil {
			t.Fatalf("unknown BinaryPrecision %q accepted", precision)
		}
	}
}

// TestBinaryDefendedFallback: a daemon serving a defended model accepts
// binary frames but answers through the defended float64 path —
// bit-identical to JSON over representable values.
func TestBinaryDefendedFallback(t *testing.T) {
	dir := t.TempDir()
	path, _ := saveTestNet(t, dir, "model.gob", []int{6, 16, 2}, 11)
	chain := defense.Chain{{Kind: defense.KindSqueeze, Bits: 1, Threshold: 0.05}}
	s, err := New(Options{ModelPath: path, Defenses: chain})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	f32, f64 := frameRows(8, 6)
	jsonResp := decodeScore(t, postJSON(t, s, "/v1/score", scoreBody(f64)))
	binResp := decodeScore(t, postFrame(t, s, "/v1/score", mustFrame32(t, "", 8, 6, f32)))
	for i, r := range binResp.Results {
		if r != jsonResp.Results[i] {
			t.Fatalf("row %d: defended binary %+v != JSON %+v", i, r, jsonResp.Results[i])
		}
	}
}

// TestStatsCountersUniform: the fast JSON path, the strict JSON path and
// the binary path all advance the same request/row counters — a request
// is a request no matter how it was framed.
func TestStatsCountersUniform(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	getStats := func() StatsResponse {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
		var resp StatsResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	before := getStats()
	if before.UptimeSeconds <= 0 {
		t.Fatalf("uptime_seconds %g, want > 0", before.UptimeSeconds)
	}
	f32, f64 := frameRows(4, 3)
	// Fast JSON path (canonical body), strict JSON path (whitespace keeps
	// the fast parser honest but is still valid JSON), binary path.
	if w := postJSON(t, s, "/v1/score", scoreBody(f64)); w.Code != 200 {
		t.Fatalf("fast: %d %s", w.Code, w.Body)
	}
	if w := postJSON(t, s, "/v1/score", " \n"+scoreBody(f64)); w.Code != 200 {
		t.Fatalf("strict: %d %s", w.Code, w.Body)
	}
	if w := postFrame(t, s, "/v1/score", mustFrame32(t, "", 4, 3, f32)); w.Code != 200 {
		t.Fatalf("binary: %d", w.Code)
	}
	after := getStats()
	if got := after.Requests - before.Requests; got != 3 {
		t.Fatalf("requests advanced by %d, want 3", got)
	}
	if got := after.Rows - before.Rows; got != 12 {
		t.Fatalf("rows advanced by %d, want 12", got)
	}
	// A rejected request bumps rejected, not requests.
	if w := postFrame(t, s, "/v1/score", []byte("junk")); w.Code != 400 {
		t.Fatalf("junk frame: %d", w.Code)
	}
	final := getStats()
	if final.Requests != after.Requests || final.Rejected != after.Rejected+1 {
		t.Fatalf("rejection accounting: requests %d→%d, rejected %d→%d",
			after.Requests, final.Requests, after.Rejected, final.Rejected)
	}
	// A storeless daemon (no registry) has no results store or miner: the
	// store counters must stay absent-as-zero, never invented.
	if final.ResultsRecords != 0 || final.ResultsBytes != 0 || final.MineJobs != 0 {
		t.Fatalf("storeless daemon reported store counters: records=%d bytes=%d mine=%d",
			final.ResultsRecords, final.ResultsBytes, final.MineJobs)
	}
}

// TestFastPathRowBits: the strict and fast JSON decoders and the binary
// values must agree bit-for-bit on the parsed matrix — pinned through the
// score responses of a served model over tricky float values.
func TestFastPathCountsModelRequests(t *testing.T) {
	// The fast JSON parser handles only default-model bodies, where
	// CountRequest is a no-op today; this pins that it is nevertheless
	// called symmetrically by scoring paths (via the registry instance it
	// would count on a named model — covered in
	// TestScoreBinaryModelAddressed) and that repeated fast-path requests
	// keep the global counter exact.
	s, _ := newTestServer(t, Options{})
	_, f64 := frameRows(1, 3)
	for i := 0; i < 3; i++ {
		if w := postJSON(t, s, "/v1/score", scoreBody(f64)); w.Code != 200 {
			t.Fatalf("request %d: %d %s", i, w.Code, w.Body)
		}
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var resp StatsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Requests != 3 {
		t.Fatalf("requests = %d, want 3", resp.Requests)
	}
}
