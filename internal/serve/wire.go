// Wire types: the JSON request/response schemas of the attritiond HTTP
// API, documented endpoint by endpoint in API.md (keep the two in sync).
// Every response is encoded from a struct, so field order — and therefore
// the response bytes for a given logical payload — is fixed. The batch
// endpoint appends its lines directly (batch.go), byte for byte what
// json.Encoder writes for these structs.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"github.com/gautrais/stability/internal/retail"
	"github.com/gautrais/stability/internal/stream"
	"github.com/gautrais/stability/internal/window"
)

// ReceiptIn is one receipt of a POST /v1/receipts batch.
type ReceiptIn struct {
	// Customer is the purchasing customer's id.
	Customer uint64 `json:"customer"`
	// Time is the receipt timestamp, RFC 3339.
	Time time.Time `json:"time"`
	// Items lists the purchased product segments.
	Items []uint32 `json:"items"`
}

// IngestRequest is the POST /v1/receipts body.
type IngestRequest struct {
	// Receipts is the batch, ingested in slice order.
	Receipts []ReceiptIn `json:"receipts"`
}

// IngestResponse reports a batch's disposition.
type IngestResponse struct {
	// Accepted counts receipts queued for ingestion.
	Accepted int `json:"accepted"`
	// Shed counts receipts dropped by the shed overflow policy.
	Shed int `json:"shed,omitempty"`
	// Stale counts receipts refused because their window is already
	// closed (or precedes the grid origin).
	Stale int `json:"stale,omitempty"`
}

// ErrorResponse is the body of every non-2xx JSON response.
type ErrorResponse struct {
	// Error is a human-readable description.
	Error string `json:"error"`
	// RetryAfterMS accompanies 429 responses (PolicyReject, queue full).
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// StabilityResponse answers GET /v1/customers/{id}/stability.
type StabilityResponse struct {
	// Customer echoes the queried id.
	Customer uint64 `json:"customer"`
	// Stability is the last scored stability in [0,1].
	Stability float64 `json:"stability"`
	// Window is the grid index of the scored window; Start/End bound it.
	Window int       `json:"window"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

// BatchStabilityQuery is one line of a POST /v1/stability:batch request
// body (NDJSON: one query object per line).
type BatchStabilityQuery struct {
	// Customer is the queried customer's id.
	Customer uint64 `json:"customer"`
}

// AlertOut is one alert on the wire, stamped with its delivery sequence.
type AlertOut struct {
	// Seq is the alert's position in the delivery log; pass the largest
	// seen back as ?after= to resume.
	Seq uint64 `json:"seq"`
	// Customer is the defecting customer.
	Customer uint64 `json:"customer"`
	// Window is the scored window's grid index; Start/End bound it.
	Window int       `json:"window"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	// Stability is the score that crossed the β threshold.
	Stability float64 `json:"stability"`
	// Drop is the decrease vs. the previous scored window, when any.
	Drop float64 `json:"drop,omitempty"`
	// Blame lists the most significant missing products.
	Blame []BlameOut `json:"blame,omitempty"`
}

// BlameOut attributes part of a stability decrease to one missing item.
type BlameOut struct {
	// Item is the missing product segment.
	Item uint32 `json:"item"`
	// Share is the fraction of the decrease this item explains.
	Share float64 `json:"share"`
}

// AlertsResponse answers a (long-)poll GET /v1/alerts.
type AlertsResponse struct {
	// Alerts is the delivery-ordered batch (possibly empty on timeout).
	Alerts []AlertOut `json:"alerts"`
	// Next is the cursor to pass as ?after= on the next poll.
	Next uint64 `json:"next"`
	// Oldest is the lowest sequence still buffered; a gap (after+1 <
	// oldest) means the consumer fell behind the alert buffer.
	Oldest uint64 `json:"oldest"`
}

// HealthResponse answers GET /healthz (liveness) and GET /readyz
// (readiness).
type HealthResponse struct {
	// Status is "ok" while serving and "closing" during shutdown on
	// /healthz; /readyz reports "ready", "degraded", or "closing".
	Status string `json:"status"`
	// Customers is the number of tracked customers.
	Customers int `json:"customers"`
	// Watermark is the lowest window index not yet closed.
	Watermark int `json:"watermark"`
	// Degraded reports a persistently failing maintenance loop (saver,
	// compactor, or follower); Reasons names the failing loops. Liveness
	// stays "ok" while degraded — readiness answers 503.
	Degraded bool `json:"degraded,omitempty"`
	// Reasons lists one entry per failing maintenance loop.
	Reasons []string `json:"degraded_reasons,omitempty"`
}

// MetricsResponse answers GET /metrics: the ingestion counters plus
// serving-layer counters and per-endpoint latency.
type MetricsResponse struct {
	stream.IngestorMetrics
	// ReceiptsStale counts receipts refused at the HTTP layer because
	// their window was already closed.
	ReceiptsStale uint64 `json:"receipts_stale"`
	// PanicsRecovered counts handler panics converted to 500 responses.
	PanicsRecovered uint64 `json:"panics_recovered"`
	// Endpoints reports per-endpoint call counts and latency, sorted by
	// endpoint name.
	Endpoints []EndpointMetrics `json:"endpoints"`
}

// stabilityResponse is the answer for a customer whose last scored window
// is k of grid.
func stabilityResponse(grid window.Grid, id uint64, value float64, k int) StabilityResponse {
	start, end := grid.Bounds(k)
	return StabilityResponse{Customer: id, Stability: value, Window: k, Start: start, End: end}
}

// toAlertOut converts a log alert to its wire form.
func toAlertOut(a stream.SeqAlert) AlertOut {
	out := AlertOut{
		Seq:       a.Seq,
		Customer:  uint64(a.Customer),
		Window:    a.GridIndex,
		Start:     a.Start,
		End:       a.End,
		Stability: a.Stability,
		Drop:      a.Drop,
	}
	for _, b := range a.Blame {
		out.Blame = append(out.Blame, BlameOut{Item: uint32(b.Item), Share: b.Share})
	}
	return out
}

// EncodeAlerts writes alerts as newline-delimited JSON, one AlertOut per
// line — the exact bytes the long-poll endpoint delivers for these alerts.
// The differential tests pin daemon output against a sequential Monitor
// replay encoded through this same function.
func EncodeAlerts(w io.Writer, alerts []stream.SeqAlert) error {
	enc := json.NewEncoder(w)
	for _, a := range alerts {
		if err := enc.Encode(toAlertOut(a)); err != nil {
			return err
		}
	}
	return nil
}

// ErrBatchTooLarge marks a syntactically valid batch that exceeds the
// configured per-POST receipt limit; the HTTP layer maps it to 413.
var ErrBatchTooLarge = errors.New("batch exceeds the per-request receipt limit")

// decodeIngest parses and validates a POST /v1/receipts body with
// encoding/json. It is the reference decoder, and the path for every body
// decodeReceipts' one-pass parse does not take.
func decodeIngest(r io.Reader, maxBatch int) (*IngestRequest, error) {
	dec := json.NewDecoder(r)
	var req IngestRequest
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("invalid JSON body: %w", err)
	}
	if maxBatch > 0 && len(req.Receipts) > maxBatch {
		return nil, fmt.Errorf("%w: %d receipts > %d", ErrBatchTooLarge, len(req.Receipts), maxBatch)
	}
	return &req, nil
}

// decodeBatchQueries parses a POST /v1/stability:batch body: a stream of
// JSON query objects (one per line by convention, though the decoder
// accepts any whitespace separation). The whole batch is decoded and
// validated before any response byte is written, so a malformed line is a
// clean 400 and an oversized batch a clean 413, never a torn 200.
func decodeBatchQueries(r io.Reader, maxBatch int) ([]retail.CustomerID, error) {
	dec := json.NewDecoder(r)
	var ids []retail.CustomerID
	for {
		var q BatchStabilityQuery
		if err := dec.Decode(&q); err == io.EOF {
			return ids, nil
		} else if err != nil {
			return nil, fmt.Errorf("invalid query on line %d: %w", len(ids)+1, err)
		}
		if maxBatch > 0 && len(ids) >= maxBatch {
			return nil, fmt.Errorf("%w: > %d queries", ErrBatchTooLarge, maxBatch)
		}
		ids = append(ids, retail.CustomerID(q.Customer))
	}
}

// toEvents converts wire receipts to stream events, normalizing baskets.
func toEvents(receipts []ReceiptIn) []stream.ReceiptEvent {
	events := make([]stream.ReceiptEvent, len(receipts))
	for i, r := range receipts {
		items := make([]retail.ItemID, len(r.Items))
		for j, it := range r.Items {
			items[j] = retail.ItemID(it)
		}
		events[i] = stream.ReceiptEvent{
			Customer: retail.CustomerID(r.Customer),
			Time:     r.Time,
			Items:    retail.NewBasket(items),
		}
	}
	return events
}
