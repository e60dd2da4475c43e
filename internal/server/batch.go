package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"ipcp/internal/par"
)

// This file implements POST /v1/batch on a single server: N sources
// analyzed concurrently in one request, streamed back as NDJSON — one
// BatchItemResult per line, in completion order — with per-item
// statuses so one failing source never voids its siblings. A fleet
// router implements the same wire contract by sending each shard one
// sub-batch of the items it owns and relaying the shards' lines
// (internal/fleet); a single server fans items out across its own
// worker pool.

// MaxBatchItems bounds one /v1/batch request.
const MaxBatchItems = 1024

// DecodeBatch reads a /v1/batch body and checks its item count,
// answering 400 itself when either fails. A fleet edge validates its
// batches with it too.
func DecodeBatch(w http.ResponseWriter, r *http.Request) (BatchRequest, bool) {
	var req BatchRequest
	if _, ok := Decode(w, r, &req); !ok {
		return req, false
	}
	if len(req.Items) == 0 {
		Fail(w, http.StatusBadRequest, errors.New("batch: no items"))
		return req, false
	}
	if len(req.Items) > MaxBatchItems {
		Fail(w, http.StatusBadRequest,
			fmt.Errorf("batch: %d items exceeds the %d-item bound", len(req.Items), MaxBatchItems))
		return req, false
	}
	return req, true
}

// BatchStream is the answer to a /v1/batch request: status 200 and an
// NDJSON body of one flushed line per item, in the order the lines are
// written. It is safe for concurrent use. StreamBatch writes through
// it, and so does a fleet edge relaying its shards' lines.
type BatchStream struct {
	mu      sync.Mutex
	enc     *json.Encoder
	flusher http.Flusher
	err     error
}

// NewBatchStream starts the answer on w.
func NewBatchStream(w http.ResponseWriter) *BatchStream {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	return &BatchStream{enc: json.NewEncoder(w), flusher: flusher}
}

// Line writes v as item i's line.
func (s *BatchStream) Line(i int, v any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.enc.Encode(v); err != nil {
		if s.err == nil {
			s.err = fmt.Errorf("batch: write item %d: %w", i, err)
		}
		return
	}
	if s.flusher != nil {
		s.flusher.Flush()
	}
}

// Err returns the first error writing a line.
func (s *BatchStream) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// StreamBatch answers a batch of n items through a BatchStream: it
// runs line(i) for every item, at most limit at a time, and writes
// each result as its line in completion order. It returns the first
// error writing a line.
func StreamBatch(w http.ResponseWriter, n, limit int, line func(i int) any) error {
	out := NewBatchStream(w)
	par.For(limit, n, func(i int) { out.Line(i, line(i)) })
	return out.Err()
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	req, ok := DecodeBatch(w, r)
	if !ok {
		return
	}
	s.metrics.batchSize.Observe(float64(len(req.Items)))

	// Fan out at most Workers items at a time: one batch can saturate
	// the pool but leaves the admission queue's headroom to concurrent
	// requests — a genuinely overloaded server still sheds per item
	// (status 429 on the item, not the batch).
	err := StreamBatch(w, len(req.Items), s.cfg.Workers, func(i int) any {
		res := s.batchItem(r.Context(), i, req)
		if res.OK() {
			s.metrics.batchItems.Add(1)
		} else {
			s.metrics.batchErrors.Add(1)
		}
		return res
	})
	if err != nil {
		s.logf("%v", err)
	}
}

// batchItem serves one batch item exactly as a standalone /v1/analyze
// would: its own configuration and deadline, coalesced with identical
// in-flight work, pooled, incremental against its lineage's snapshot.
func (s *Server) batchItem(parent context.Context, i int, req BatchRequest) BatchItemResult {
	areq := req.AnalyzeRequest(i)
	res := BatchItemResult{Index: i, Shard: -1}
	cfg, err := areq.Config.Config()
	if err != nil {
		res.Status, res.Error = http.StatusBadRequest, err.Error()
		return res
	}
	ctx, cancel := s.deadline(parent, areq.TimeoutMS)
	defer cancel()
	rep, shared, err := s.analyzeFlight(ctx, areq.Source, areq.Program, cfg)
	if err != nil {
		res.Status, res.Error = s.errStatus(err), err.Error()
		return res
	}
	res.Status, res.Report, res.Coalesced = http.StatusOK, rep, shared
	return res
}
