package client

import (
	"context"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"malevade/internal/campaign/spec"
	"malevade/internal/store"
)

// The results half of the SDK: query the daemon's durable campaign-results
// store (/v1/results), replay stored perturbations, and run historical
// attack mining sweeps (/v1/mine). Daemons without a results store refuse
// these calls with a *wire.Error matching wire.ErrNoStore.

// ResultsSummary mirrors the GET /v1/results response: every stored
// campaign plus the store's durable size counters.
type ResultsSummary struct {
	Campaigns      []store.CampaignSummary `json:"campaigns"`
	TrafficRecords int64                   `json:"traffic_records"`
	Records        int64                   `json:"records"`
	Bytes          int64                   `json:"bytes"`
}

// ResultsPage mirrors GET /v1/results/{id}: one campaign's stored history
// with a cursor-paginated window of per-sample results.
type ResultsPage struct {
	store.CampaignHistory
	// Total counts the campaign's stored samples before filtering.
	Total int `json:"total"`
	// Cursor/NextCursor paginate: resubmit NextCursor to continue;
	// NextCursor 0 means this page exhausted the log.
	Cursor     int `json:"cursor"`
	NextCursor int `json:"next_cursor,omitempty"`
}

// TrafficPage mirrors GET /v1/results/traffic.
type TrafficPage struct {
	Total      int                `json:"total"`
	Cursor     int                `json:"cursor"`
	NextCursor int                `json:"next_cursor,omitempty"`
	Rows       []store.TrafficRow `json:"rows"`
}

// ResultsQuery filters one campaign's stored samples.
type ResultsQuery struct {
	// Cursor/Limit window the unfiltered stored sequence (Limit 0 = the
	// daemon's page size, currently 1024).
	Cursor int
	Limit  int
	// Generation, when non-nil, keeps only samples judged by that model
	// generation.
	Generation *int64
	// FlipsOnly keeps only verdict flips: samples the target detected as
	// the original but passed as the adversarial variant.
	FlipsOnly bool
}

func (q ResultsQuery) values() url.Values {
	v := url.Values{}
	if q.Cursor > 0 {
		v.Set("cursor", strconv.Itoa(q.Cursor))
	}
	if q.Limit > 0 {
		v.Set("limit", strconv.Itoa(q.Limit))
	}
	if q.Generation != nil {
		v.Set("generation", strconv.FormatInt(*q.Generation, 10))
	}
	if q.FlipsOnly {
		v.Set("flips", "true")
	}
	return v
}

// TrafficQuery filters the recorded traffic log.
type TrafficQuery struct {
	Cursor int
	Limit  int
	// Model keeps only rows answered by that registry model (set HasModel
	// to filter for the default slot's "").
	Model    string
	HasModel bool
	// Generation, when non-nil, keeps only rows answered by that model
	// generation.
	Generation *int64
	// MinProb/MaxProb, when non-nil, keep only rows whose recorded
	// P(malware) lies in the band — the score-band filter the miner's
	// near-boundary sweep is built on.
	MinProb *float64
	MaxProb *float64
}

func (q TrafficQuery) values() url.Values {
	v := url.Values{}
	if q.Cursor > 0 {
		v.Set("cursor", strconv.Itoa(q.Cursor))
	}
	if q.Limit > 0 {
		v.Set("limit", strconv.Itoa(q.Limit))
	}
	if q.Model != "" || q.HasModel {
		v.Set("model", q.Model)
	}
	if q.Generation != nil {
		v.Set("generation", strconv.FormatInt(*q.Generation, 10))
	}
	if q.MinProb != nil {
		v.Set("min_prob", strconv.FormatFloat(*q.MinProb, 'g', -1, 64))
	}
	if q.MaxProb != nil {
		v.Set("max_prob", strconv.FormatFloat(*q.MaxProb, 'g', -1, 64))
	}
	return v
}

func pathWithQuery(path string, v url.Values) string {
	if enc := v.Encode(); enc != "" {
		return path + "?" + enc
	}
	return path
}

// Results fetches the store summary via GET /v1/results. A non-empty model
// keeps only campaigns targeting it.
func (c *Client) Results(ctx context.Context, model string) (ResultsSummary, error) {
	v := url.Values{}
	if model != "" {
		v.Set("model", model)
	}
	var out ResultsSummary
	err := c.do(ctx, http.MethodGet, pathWithQuery("/v1/results", v), nil, &out, true)
	return out, err
}

// CampaignResults fetches one campaign's stored per-sample results via
// GET /v1/results/{id}. Unknown ids are a *wire.Error matching
// wire.ErrNotFound.
func (c *Client) CampaignResults(ctx context.Context, id string, q ResultsQuery) (ResultsPage, error) {
	var out ResultsPage
	err := c.do(ctx, http.MethodGet,
		pathWithQuery("/v1/results/"+url.PathEscape(id), q.values()), nil, &out, true)
	return out, err
}

// Traffic fetches recorded live-traffic rows via GET /v1/results/traffic.
func (c *Client) Traffic(ctx context.Context, q TrafficQuery) (TrafficPage, error) {
	var out TrafficPage
	err := c.do(ctx, http.MethodGet,
		pathWithQuery("/v1/results/traffic", q.values()), nil, &out, true)
	return out, err
}

// ReplayRequest asks the daemon to re-score one stored perturbation.
type ReplayRequest struct {
	// Index is the stored sample's population index.
	Index int `json:"index"`
	// Model/Version select the judge: empty Model means the daemon's
	// current default model; a named model replays against the registry's
	// retained Version of it (0 = its live version).
	Model   string `json:"model,omitempty"`
	Version int    `json:"version,omitempty"`
}

// ReplayResponse reports a replayed verdict next to the stored one.
type ReplayResponse struct {
	ID           string  `json:"id"`
	Index        int     `json:"index"`
	Model        string  `json:"model,omitempty"`
	Version      int     `json:"version,omitempty"`
	ModelVersion int64   `json:"model_version,omitempty"`
	Prob         float64 `json:"prob"`
	Class        int     `json:"class"`
	Evaded       bool    `json:"evaded"`
	// StoredGeneration/StoredEvaded recall the original verdict.
	StoredGeneration int64 `json:"stored_generation"`
	StoredEvaded     bool  `json:"stored_evaded"`
}

// Replay re-scores one stored perturbation via POST /v1/results/{id}/replay
// — deterministic re-evaluation of a stored attack against any model
// version the daemon retains. Campaigns submitted without KeepRows have no
// stored perturbations and refuse with 422.
func (c *Client) Replay(ctx context.Context, id string, req ReplayRequest) (ReplayResponse, error) {
	var out ReplayResponse
	err := c.do(ctx, http.MethodPost, "/v1/results/"+url.PathEscape(id)+"/replay", req, &out, false)
	return out, err
}

// mineList mirrors the GET /v1/mine response.
type mineList struct {
	Jobs []store.MineSnapshot `json:"jobs"`
}

// SubmitMine submits a traffic-mining sweep via POST /v1/mine and returns
// the queued snapshot. Submission is a mutating call and is never retried;
// backpressure surfaces as a *wire.Error matching wire.ErrQueueFull.
func (c *Client) SubmitMine(ctx context.Context, sp store.MineSpec) (store.MineSnapshot, error) {
	var snap store.MineSnapshot
	err := c.do(ctx, http.MethodPost, "/v1/mine", sp, &snap, false)
	return snap, err
}

// MineSnapshot polls one mining sweep via GET /v1/mine/{id}; terminal
// snapshots carry the full ranked findings report. An unknown id is a
// *wire.Error matching wire.ErrNotFound.
func (c *Client) MineSnapshot(ctx context.Context, id string) (store.MineSnapshot, error) {
	var snap store.MineSnapshot
	err := c.do(ctx, http.MethodGet, "/v1/mine/"+url.PathEscape(id), nil, &snap, true)
	return snap, err
}

// Mines lists mining-sweep snapshots (findings elided) in submission order
// via GET /v1/mine.
func (c *Client) Mines(ctx context.Context) ([]store.MineSnapshot, error) {
	var list mineList
	err := c.do(ctx, http.MethodGet, "/v1/mine", nil, &list, true)
	return list.Jobs, err
}

// CancelMine cancels a sweep via DELETE /v1/mine/{id} and returns the
// resulting snapshot. A queued sweep is cancelled at once; a running one
// stops at its checkpoint between reading the traffic and ranking it — wait
// for it with WaitMine; a terminal one is unaffected.
func (c *Client) CancelMine(ctx context.Context, id string) (store.MineSnapshot, error) {
	var snap store.MineSnapshot
	err := c.do(ctx, http.MethodDelete, "/v1/mine/"+url.PathEscape(id), nil, &snap, false)
	return snap, err
}

// MineWaitOptions tunes WaitMine. The zero value polls every 100ms.
type MineWaitOptions struct {
	// Interval is the poll interval (default 100ms — sweeps are quick).
	Interval time.Duration
	// OnSnapshot, when non-nil, receives every polled snapshot.
	OnSnapshot func(store.MineSnapshot)
}

// WaitMine polls one sweep until it reaches a terminal state and returns
// the terminal snapshot with its ranked findings. Cancelling ctx abandons
// the wait promptly with ctx.Err().
func (c *Client) WaitMine(ctx context.Context, id string, opts MineWaitOptions) (store.MineSnapshot, error) {
	return poll(ctx, opts.Interval, 100*time.Millisecond, opts.OnSnapshot, func() (store.MineSnapshot, spec.Status, error) {
		snap, err := c.MineSnapshot(ctx, id)
		return snap, snap.Status, err
	})
}
