package client

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"time"

	"malevade/internal/campaign/spec"
	"malevade/internal/tensor"
)

// The campaign half of the SDK: submit, poll, wait and cancel against the
// daemon's asynchronous /v1/campaigns API, plus the campaign.Target
// adapter that lets an engine judge evasion against a remote daemon.

// campaignList mirrors the GET /v1/campaigns response.
type campaignList struct {
	Campaigns []spec.Snapshot `json:"campaigns"`
}

// SubmitCampaign submits an evasion campaign spec via POST /v1/campaigns
// and returns the queued snapshot. Submission is a mutating call and is
// never retried; backpressure surfaces as a *wire.Error matching
// wire.ErrQueueFull.
func (c *Client) SubmitCampaign(ctx context.Context, sp spec.Spec) (spec.Snapshot, error) {
	var snap spec.Snapshot
	err := c.do(ctx, http.MethodPost, "/v1/campaigns", sp, &snap, false)
	return snap, err
}

// CampaignSnapshot polls one campaign via GET /v1/campaigns/{id}, with
// per-sample results from offset on. An unknown id is a *wire.Error
// matching wire.ErrNotFound.
func (c *Client) CampaignSnapshot(ctx context.Context, id string, offset int) (spec.Snapshot, error) {
	var snap spec.Snapshot
	path := "/v1/campaigns/" + url.PathEscape(id)
	if offset > 0 {
		path += fmt.Sprintf("?offset=%d", offset)
	}
	err := c.do(ctx, http.MethodGet, path, nil, &snap, true)
	return snap, err
}

// Campaigns lists campaign summaries (no per-sample results) in
// submission order via GET /v1/campaigns.
func (c *Client) Campaigns(ctx context.Context) ([]spec.Snapshot, error) {
	var list campaignList
	err := c.do(ctx, http.MethodGet, "/v1/campaigns", nil, &list, true)
	return list.Campaigns, err
}

// CancelCampaign requests cancellation via DELETE /v1/campaigns/{id} and
// returns the resulting snapshot. Cancellation registers immediately; the
// campaign reaches its terminal state at the next batch boundary — wait
// for it with WaitCampaign.
func (c *Client) CancelCampaign(ctx context.Context, id string) (spec.Snapshot, error) {
	var snap spec.Snapshot
	err := c.do(ctx, http.MethodDelete, "/v1/campaigns/"+url.PathEscape(id), nil, &snap, false)
	return snap, err
}

// WaitOptions tunes WaitCampaign. The zero value polls every 250ms with
// no progress callback.
type WaitOptions struct {
	// Interval is the poll interval (default 250ms).
	Interval time.Duration
	// OnSnapshot, when non-nil, receives every polled snapshot; its
	// Results window holds only the samples judged since the previous
	// poll, so a watcher can stream incremental results.
	OnSnapshot func(spec.Snapshot)
}

// WaitCampaign polls one campaign until it reaches a terminal state,
// streaming incremental result windows (each poll passes ?offset=<seen>
// so the daemon serializes each sample once). The returned terminal
// snapshot carries the full accumulated per-sample results. Cancelling
// ctx abandons the wait promptly with ctx.Err(); the campaign itself
// keeps running — use CancelCampaign to stop it.
func (c *Client) WaitCampaign(ctx context.Context, id string, opts WaitOptions) (spec.Snapshot, error) {
	var all []spec.SampleResult
	snap, err := poll(ctx, opts.Interval, 250*time.Millisecond, opts.OnSnapshot, func() (spec.Snapshot, spec.Status, error) {
		snap, err := c.CampaignSnapshot(ctx, id, len(all))
		all = append(all, snap.Results...)
		return snap, snap.Status, err
	})
	if err != nil {
		return spec.Snapshot{}, err
	}
	snap.ResultsOffset = 0
	snap.Results = all
	return snap, nil
}

// poll fetches a job snapshot every interval (fallback when interval is not
// positive), handing each to onSnap when it is set, until the snapshot's
// status is terminal. Cancelling ctx abandons the wait with ctx.Err(); the
// job itself keeps running.
func poll[S any](ctx context.Context, interval, fallback time.Duration, onSnap func(S), fetch func() (S, spec.Status, error)) (S, error) {
	if interval <= 0 {
		interval = fallback
	}
	var zero S
	for {
		snap, status, err := fetch()
		if err != nil {
			return zero, err
		}
		if onSnap != nil {
			onSnap(snap)
		}
		if status.Terminal() {
			return snap, nil
		}
		t := time.NewTimer(interval)
		select {
		case <-ctx.Done():
			t.Stop()
			return zero, ctx.Err()
		case <-t.C:
		}
	}
}

// CampaignTarget adapts a Client into a campaign.Target judging evasion
// against the remote daemon's /v1/label endpoint — the paper's real-world
// setting, where the campaign host attacks a detector it reaches only
// over the network. The single-generation guarantee comes from the daemon
// (a response is always wholly one model version) via LabelVersion, which
// retries batches a hot-reload happened to split.
type CampaignTarget struct {
	// Client is the wire SDK; its MaxBatch must stay at or below the
	// remote daemon's per-request row limit.
	Client *Client
}

// NewCampaignTarget points a campaign target at the daemon c speaks to.
func NewCampaignTarget(c *Client) *CampaignTarget { return &CampaignTarget{Client: c} }

// NewRemoteTarget is the canonical remote-target factory — a fresh SDK
// client (shared pooled transport) judging against baseURL's /v1/label.
// The campaign engine's hosts (the facade and the daemon) all wire this
// one constructor into campaign.Options.RemoteTarget, so remote-target
// construction has a single definition.
func NewRemoteTarget(baseURL string) *CampaignTarget { return NewCampaignTarget(New(baseURL)) }

// LabelBatch implements campaign.Target over the remote /v1/label
// endpoint.
func (t *CampaignTarget) LabelBatch(ctx context.Context, x *tensor.Matrix) ([]int, int64, error) {
	if t.Client == nil {
		return nil, 0, fmt.Errorf("client: CampaignTarget has no client")
	}
	return t.Client.LabelVersion(ctx, x)
}
