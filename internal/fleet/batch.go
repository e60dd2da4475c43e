package fleet

import (
	"context"
	"encoding/json"
	"net/http"

	"ipcp/internal/server"
)

// This file is the fleet's batch fan-out: one POST /v1/batch request
// of N sources splits per item, each item routed to the shard that
// owns its lineage and dispatched as an ordinary /v1/analyze, with the
// results streamed back as NDJSON in completion order. Partial failure
// is per item: a shard dying mid-batch errors (status 502) only an
// item whose answer it cut off, its other items fail over to the
// runner-up, and sibling items on healthy shards are never voided.

// batchLine is one line of the edge's /v1/batch stream: a
// server.BatchItemResult whose report stays the bytes the worker sent,
// so the edge never builds the report it relays.
type batchLine struct {
	Index     int             `json:"index"`
	Status    int             `json:"status"`
	Shard     int             `json:"shard"`
	Report    json.RawMessage `json:"report,omitempty"`
	Error     string          `json:"error,omitempty"`
	Coalesced bool            `json:"coalesced,omitempty"`
}

func (f *Fleet) handleBatch(w http.ResponseWriter, r *http.Request) {
	req, ok := server.DecodeBatch(w, r)
	if !ok {
		return
	}
	f.metrics.batchSize.Observe(float64(len(req.Items)))

	// Bound the fleet-wide fan-out; each worker additionally sheds per
	// item through its own admission control (and dispatch absorbs one
	// 429 per item).
	err := server.StreamBatch(w, len(req.Items), batchItemsPerWorker*f.cfg.Workers, func(i int) any {
		line := f.batchItem(r.Context(), i, req)
		if line.Status == http.StatusOK {
			f.metrics.batchItems.Add(1)
		} else {
			f.metrics.batchErrors.Add(1)
		}
		return line
	})
	if err != nil {
		f.logf("fleet: %v", err)
	}
}

// batchItem dispatches one item to the shard owning its lineage.
func (f *Fleet) batchItem(ctx context.Context, i int, req server.BatchRequest) batchLine {
	areq := req.AnalyzeRequest(i)
	line := batchLine{Index: i, Shard: -1}
	cfg, err := areq.Config.Config()
	if err != nil {
		line.Status, line.Error = http.StatusBadRequest, err.Error()
		return line
	}
	// An AnalyzeRequest holds only strings, numbers and bools, which
	// always marshal.
	body, _ := json.Marshal(areq)
	shard, res, err := f.dispatch(ctx, analyzeKey(areq.Program, cfg), "batch", http.MethodPost, "/v1/analyze", body)
	line.Shard = shard
	if err == nil {
		// An /v1/analyze answer holds exactly the line's report and
		// coalesced fields.
		err = json.NewDecoder(res.Body).Decode(&line)
		res.Body.Close()
	}
	if err != nil {
		line.Status, line.Error = statusOf(nil, err), err.Error()
		return line
	}
	line.Status = http.StatusOK
	return line
}
