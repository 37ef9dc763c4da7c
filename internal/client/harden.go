package client

import (
	"context"
	"net/http"
	"net/url"
	"time"

	hspec "malevade/internal/harden/spec"
)

// The hardening half of the SDK: submit, poll, wait and cancel closed-loop
// hardening jobs against the daemon's /v1/harden API.

// hardenList mirrors the GET /v1/harden response.
type hardenList struct {
	Jobs []hspec.Snapshot `json:"jobs"`
}

// SubmitHarden submits a hardening spec via POST /v1/harden and returns
// the queued snapshot. Submission is a mutating call and is never retried;
// backpressure surfaces as a *wire.Error matching wire.ErrQueueFull.
func (c *Client) SubmitHarden(ctx context.Context, sp hspec.Spec) (hspec.Snapshot, error) {
	var snap hspec.Snapshot
	err := c.do(ctx, http.MethodPost, "/v1/harden", sp, &snap, false)
	return snap, err
}

// HardenSnapshot polls one hardening job via GET /v1/harden/{id}. An
// unknown id is a *wire.Error matching wire.ErrNotFound.
func (c *Client) HardenSnapshot(ctx context.Context, id string) (hspec.Snapshot, error) {
	var snap hspec.Snapshot
	err := c.do(ctx, http.MethodGet, "/v1/harden/"+url.PathEscape(id), nil, &snap, true)
	return snap, err
}

// Hardens lists hardening-job snapshots in submission order via
// GET /v1/harden.
func (c *Client) Hardens(ctx context.Context) ([]hspec.Snapshot, error) {
	var list hardenList
	err := c.do(ctx, http.MethodGet, "/v1/harden", nil, &list, true)
	return list.Jobs, err
}

// CancelHarden requests cancellation via DELETE /v1/harden/{id} and
// returns the resulting snapshot. Cancellation registers immediately; the
// job reaches its terminal state at its next cancellation point (campaign
// batch boundary or retraining epoch) — wait for it with WaitHarden.
func (c *Client) CancelHarden(ctx context.Context, id string) (hspec.Snapshot, error) {
	var snap hspec.Snapshot
	err := c.do(ctx, http.MethodDelete, "/v1/harden/"+url.PathEscape(id), nil, &snap, false)
	return snap, err
}

// HardenWaitOptions tunes WaitHarden. The zero value polls every 500ms
// with no progress callback (hardening rounds are orders of magnitude
// slower than campaign batches, so the default cadence is laxer than
// WaitCampaign's).
type HardenWaitOptions struct {
	// Interval is the poll interval (default 500ms).
	Interval time.Duration
	// OnSnapshot, when non-nil, receives every polled snapshot.
	OnSnapshot func(hspec.Snapshot)
}

// WaitHarden polls one hardening job until it reaches a terminal state and
// returns the terminal snapshot with its full per-round metrics.
// Cancelling ctx abandons the wait promptly with ctx.Err(); the job itself
// keeps running — use CancelHarden to stop it.
func (c *Client) WaitHarden(ctx context.Context, id string, opts HardenWaitOptions) (hspec.Snapshot, error) {
	return poll(ctx, opts.Interval, 500*time.Millisecond, opts.OnSnapshot, func() (hspec.Snapshot, hspec.Status, error) {
		snap, err := c.HardenSnapshot(ctx, id)
		return snap, snap.Status, err
	})
}
