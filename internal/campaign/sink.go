package campaign

import "time"

// Sink receives a campaign's durable event stream: one Started when the
// engine accepts the spec, zero or more Samples batches as judging
// progresses, and exactly one Finished when the job reaches a terminal
// state (including campaigns cancelled before they ran). The results store
// (internal/store) implements it; a nil sink disables streaming.
//
// The engine calls Started synchronously under its submit path, before any
// worker can start the campaign, and the other two from the goroutine that
// ends it — its worker, or the Cancel or Close that took it off the queue —
// so calls for one campaign are strictly ordered and never concurrent. Sink errors are logged and
// swallowed: durability is best-effort from the engine's side, and a
// failing disk must not fail a running campaign.
type Sink interface {
	// CampaignStarted opens the campaign's durable log.
	CampaignStarted(id string, sp Spec, submitted time.Time) error
	// CampaignSamples appends one judged batch's results, in population
	// order within the batch.
	CampaignSamples(id string, results []SampleResult) error
	// CampaignFinished seals the log with the terminal snapshot.
	CampaignFinished(id string, snap Snapshot) error
}
