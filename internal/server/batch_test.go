package server_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ipcp"
	"ipcp/internal/server"
	"ipcp/internal/suite"
)

// TestServerBatchPartialFailure pins the single-process batch
// contract: per-item statuses (a malformed source answers 400 for its
// item only), results for every index, item-level config overrides
// honored, and reports equal to local Analyze.
func TestServerBatchPartialFailure(t *testing.T) {
	gen := suite.Random(4, 6)
	intraCfg := e2eConfig
	intraCfg.Jump = ipcp.Intraprocedural
	wantPoly := ipcp.MustLoad(gen.Source).Analyze(e2eConfig)
	wantIntra := ipcp.MustLoad(gen.Source).Analyze(intraCfg)
	normalize(wantPoly, wantIntra)

	_, c := startServer(t, server.Config{Workers: 2})
	override := server.ConfigOf(intraCfg)
	results, err := c.Batch(context.Background(), server.BatchRequest{
		Config: server.ConfigOf(e2eConfig),
		Items: []server.BatchItem{
			{Source: gen.Source, Program: "batch-a"},
			{Source: "this is not a program", Program: "batch-bad"},
			{Source: gen.Source, Program: "batch-b", Config: &override},
		},
	})
	if err != nil {
		t.Fatalf("a bad item must not fail the whole batch: %v", err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results for 3 items", len(results))
	}

	if !results[0].OK() {
		t.Fatalf("item 0: status %d (%s)", results[0].Status, results[0].Error)
	}
	normalize(results[0].Report)
	if !reflect.DeepEqual(results[0].Report, wantPoly) {
		t.Error("item 0: batch report diverges from local Analyze")
	}

	if results[1].OK() || results[1].Status != 400 || results[1].Error == "" {
		t.Errorf("item 1 (malformed source): status %d error %q, want 400 with a message",
			results[1].Status, results[1].Error)
	}

	if !results[2].OK() {
		t.Fatalf("item 2: status %d (%s)", results[2].Status, results[2].Error)
	}
	normalize(results[2].Report)
	if !reflect.DeepEqual(results[2].Report, wantIntra) {
		t.Error("item 2: per-item config override was not honored")
	}

	for i, res := range results {
		if res.Shard != -1 {
			t.Errorf("item %d: single-process server reports shard %d, want -1", i, res.Shard)
		}
	}
}

// TestServerBatchValidation: an empty batch and an oversized batch are
// rejected whole — no stream, a plain 400.
func TestServerBatchValidation(t *testing.T) {
	_, c := startServer(t, server.Config{Workers: 1})
	ctx := context.Background()
	if _, err := c.Batch(ctx, server.BatchRequest{}); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("empty batch: err = %v, want HTTP 400", err)
	}
	over := server.BatchRequest{Items: make([]server.BatchItem, server.MaxBatchItems+1)}
	if _, err := c.Batch(ctx, over); err == nil || !strings.Contains(err.Error(), "400") {
		t.Fatalf("oversized batch: err = %v, want HTTP 400", err)
	}
}

// TestStreamBatchBound pins StreamBatch's scheduling contract: every
// item answers exactly once, lines arrive in completion order (the
// slow first item does not hold back the rest), and no more than limit
// items run at once, with the bound actually reached.
func TestStreamBatchBound(t *testing.T) {
	const n, limit = 8, 2
	var (
		mu             sync.Mutex
		inFlight, peak int
	)
	rec := httptest.NewRecorder()
	err := server.StreamBatch(rec, n, limit, func(i int) any {
		mu.Lock()
		inFlight++
		peak = max(peak, inFlight)
		mu.Unlock()
		d := 5 * time.Millisecond
		if i == 0 {
			d = 200 * time.Millisecond
		}
		time.Sleep(d)
		mu.Lock()
		inFlight--
		mu.Unlock()
		return server.BatchItemResult{Index: i, Status: http.StatusOK}
	})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/x-ndjson" {
		t.Fatalf("status %d, Content-Type %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	var order []int
	seen := make(map[int]bool)
	dec := json.NewDecoder(rec.Body)
	for dec.More() {
		var res server.BatchItemResult
		if err := dec.Decode(&res); err != nil {
			t.Fatal(err)
		}
		if seen[res.Index] {
			t.Fatalf("item %d answered twice", res.Index)
		}
		seen[res.Index] = true
		order = append(order, res.Index)
	}
	if len(order) != n {
		t.Fatalf("got %d lines for %d items: %v", len(order), n, order)
	}
	if order[0] == 0 {
		t.Errorf("the slowest item came first: %v", order)
	}
	if peak != limit {
		t.Errorf("peak of %d items in flight, want exactly %d", peak, limit)
	}
}
