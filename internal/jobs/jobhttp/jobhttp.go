// Package jobhttp is the HTTP side every job-submit endpoint shares — the
// daemon's POST /v1/campaigns, /v1/harden and /v1/mine and the gateway's
// POST /v1/campaigns: one strict body decoder and one table that maps
// submit errors onto the wire taxonomy.
package jobhttp

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"malevade/internal/jobs"
	"malevade/internal/registry"
	"malevade/internal/wire"
)

// Decode strictly decodes the request body into v: at most maxBytes, no
// unknown fields, no trailing data. On failure it returns the wire status
// to answer with, 413 past the cap and 400 otherwise; an empty body is a
// 400 whose error wraps io.EOF.
func Decode(w http.ResponseWriter, r *http.Request, maxBytes int64, v any) (int, error) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", maxBytes)
		}
		return http.StatusBadRequest, fmt.Errorf("invalid JSON: %w", err)
	}
	if dec.More() {
		return http.StatusBadRequest, errors.New("trailing data after JSON body")
	}
	return 0, nil
}

// submitErrors maps submit failures onto the wire taxonomy; the first
// match wins.
var submitErrors = []struct {
	err    error
	status int
	code   string
}{
	{jobs.ErrQueueFull, http.StatusTooManyRequests, wire.CodeQueueFull},
	{jobs.ErrClosed, http.StatusServiceUnavailable, wire.CodeUnavailable},
	{registry.ErrUnknownModel, http.StatusNotFound, wire.CodeUnknownModel},
	{registry.ErrVersionConflict, http.StatusConflict, wire.CodeVersionConflict},
}

// WriteSubmitError answers a failed Submit. A typed *wire.Error (a fleet
// refusal relayed by the gateway) keeps its status and code; queue
// backpressure is 429 queue_full; a closed engine means the daemon is going
// away (503 unavailable); registry misses take the registry's own taxonomy
// members; anything else is the client's spec problem (422 invalid_spec).
func WriteSubmitError(w http.ResponseWriter, err error) {
	status, code := http.StatusUnprocessableEntity, wire.CodeInvalidSpec
	var we *wire.Error
	if errors.As(err, &we) {
		status, code = we.Status, we.Code
	} else {
		for _, e := range submitErrors {
			if errors.Is(err, e.err) {
				status, code = e.status, e.code
				break
			}
		}
	}
	wire.WriteErrorCode(w, status, code, "%v", err)
}
