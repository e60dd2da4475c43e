package fleet

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"ipcp/internal/server"
)

// This file is the fleet's batch fan-out: one POST /v1/batch request
// of N sources splits by shard. Each item is routed to the shard that
// owns its lineage, each owning shard gets one /v1/batch sub-request
// holding its items (the batch's config and deadline, each item's own
// overrides), and the shards' NDJSON lines are relayed as they arrive,
// each with its index mapped back to the caller's item and its shard
// set. Partial failure is per item: a sub-request a shard refuses
// gives each of its items the shard's status; a shard dying mid-batch
// errors (status 502) only an item whose line it cut off, its items
// still without a line fail over to the runner-up, and sibling items
// on healthy shards are never voided. An item a worker sheds with 429
// is re-sent once, after the worker's Retry-After wait.

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

// edgeBatch is one /v1/batch request at the edge.
type edgeBatch struct {
	f    *Fleet
	ctx  context.Context
	req  server.BatchRequest
	keys []string // routing key per item
	out  *server.BatchStream
}

func (f *Fleet) handleBatch(w http.ResponseWriter, r *http.Request) {
	req, ok := server.DecodeBatch(w, r)
	if !ok {
		return
	}
	f.metrics.batchSize.Observe(float64(len(req.Items)))
	b := &edgeBatch{f: f, ctx: r.Context(), req: req, keys: make([]string, len(req.Items)), out: server.NewBatchStream(w)}
	items := make([]int, 0, len(req.Items))
	for i := range req.Items {
		areq := req.AnalyzeRequest(i)
		cfg, err := areq.Config.Config()
		if err != nil {
			b.write(batchLine{Index: i, Status: http.StatusBadRequest, Shard: -1, Error: err.Error()})
			continue
		}
		b.keys[i] = analyzeKey(areq.Program, cfg)
		items = append(items, i)
	}
	b.dispatch(items, -1, nil)
	if err := b.out.Err(); err != nil {
		f.logf("fleet: %v", err)
	}
}

// dispatch sends each ready shard but failed (-1 excludes none) one
// sub-batch of the items whose lineages it owns, concurrently. With
// failed set, the items are failing over from that shard, and an item
// that has no runner-up fails with cause.
func (b *edgeBatch) dispatch(items []int, failed int, cause error) {
	byShard := make([][]int, b.f.cfg.Workers)
	addrs := make([]string, b.f.cfg.Workers)
	for _, i := range items {
		if failed >= 0 {
			b.f.metrics.reroutes.Add(1)
		}
		shard, addr, ok := b.f.route(b.keys[i], failed)
		if !ok {
			if failed < 0 {
				b.f.metrics.noWorkers.Add(1)
				cause = errNoWorkers
			}
			b.fail(i, failed, cause)
			continue
		}
		b.f.metrics.routed(shard)
		byShard[shard] = append(byShard[shard], i)
		addrs[shard] = addr
	}
	var wg sync.WaitGroup
	for shard, sub := range byShard {
		if len(sub) > 0 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				b.send(shard, addrs[shard], sub, failed >= 0, false)
			}()
		}
	}
	wg.Wait()
}

// send posts items to shard as one /v1/batch sub-request and relays
// its lines. Items not yet failed over (rerouted false) fail over when
// the sub-request breaks at the transport level; items not yet re-sent
// after a 429 (retried false) are re-sent once when shed.
func (b *edgeBatch) send(shard int, addr string, items []int, rerouted, retried bool) {
	sub := server.BatchRequest{Items: make([]server.BatchItem, len(items)), Config: b.req.Config, TimeoutMS: b.req.TimeoutMS}
	for j, i := range items {
		sub.Items[j] = b.req.Items[i]
	}
	// A BatchRequest holds only strings, numbers and bools, which
	// always marshal.
	body, _ := json.Marshal(sub)
	res, err := b.f.client(addr).Do(b.ctx, http.MethodPost, "/v1/batch", body)
	b.f.metrics.request(shard, "batch", statusOf(res, err))
	lined := make([]bool, len(items))
	var busy []batchLine
	cut := -1
	if err == nil {
		busy, cut, err = b.relay(res.Body, shard, items, lined, retried)
		res.Body.Close()
	}
	if err != nil {
		if b.ctx.Err() != nil {
			err = b.ctx.Err()
		}
		var left []int
		for j, i := range items {
			switch {
			case j == cut:
				b.fail(i, shard, err)
			case !lined[j]:
				left = append(left, i)
			}
		}
		if isTransport(err) && !rerouted {
			b.dispatch(left, shard, err)
		} else {
			for _, i := range left {
				b.fail(i, shard, err)
			}
		}
	}
	if len(busy) == 0 {
		return
	}
	t := time.NewTimer(server.BusyRetryAfter)
	select {
	case <-t.C:
		again := make([]int, len(busy))
		for j, line := range busy {
			again[j] = line.Index
		}
		b.send(shard, addr, again, rerouted, true)
	case <-b.ctx.Done():
		t.Stop()
		for _, line := range busy {
			b.write(line)
		}
	}
}

// relay writes a sub-batch's lines to the caller as they arrive, each
// with its index mapped back to the caller's item and its shard set,
// and marks in lined each item that got its line. It holds back the
// 429 lines of items not yet retried and returns them. It returns an
// error if the stream breaks before every item has its line; cut is
// then the item whose line was cut short, or -1.
func (b *edgeBatch) relay(body io.Reader, shard int, items []int, lined []bool, retried bool) ([]batchLine, int, error) {
	var busy []batchLine
	rd := bufio.NewReader(body)
	left := len(items)
	//lint:ignore cancelpoll bounded by the response body: reads end at io.EOF, and the request context aborts them
	for {
		raw, err := rd.ReadBytes('\n')
		if err == io.EOF && len(raw) == 0 && left == 0 {
			return busy, -1, nil
		}
		var line batchLine
		if err == nil {
			err = json.Unmarshal(raw, &line)
		}
		if err == nil && (line.Index < 0 || line.Index >= len(items) || lined[line.Index]) {
			err = fmt.Errorf("unexpected line for item %d", line.Index)
		}
		if err != nil {
			cut := lineIndex(raw)
			if cut < 0 || cut >= len(items) || lined[cut] {
				cut = -1
			}
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return busy, cut, fmt.Errorf("fleet: shard %d batch stream: %w", shard, err)
		}
		lined[line.Index] = true
		left--
		line.Index, line.Shard = items[line.Index], shard
		if line.Status == http.StatusTooManyRequests && !retried {
			busy = append(busy, line)
			continue
		}
		b.write(line)
	}
}

// lineIndex reads the index at the head of a cut or garbled line (a
// worker writes "index" first), or -1 when the head is unreadable.
func lineIndex(raw []byte) int {
	rest, ok := bytes.CutPrefix(raw, []byte(`{"index":`))
	if !ok {
		return -1
	}
	end := bytes.IndexByte(rest, ',')
	if end < 0 {
		return -1
	}
	n, err := strconv.Atoi(string(rest[:end]))
	if err != nil {
		return -1
	}
	return n
}

// fail answers item i, routed to shard, with err's status and message.
func (b *edgeBatch) fail(i, shard int, err error) {
	code, err := failure(err)
	b.write(batchLine{Index: i, Status: code, Shard: shard, Error: err.Error()})
}

// write answers one item.
func (b *edgeBatch) write(line batchLine) {
	if line.Status/100 == 2 {
		b.f.metrics.batchItems.Add(1)
	} else {
		b.f.metrics.batchErrors.Add(1)
	}
	b.out.Line(line.Index, line)
}
