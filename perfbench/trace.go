package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ipcp/internal/summary"
)

// The traced run records a span around every call the benchmark makes
// into a layer: name, start, end, parent span and op id. Spans stay in
// memory until exit. A layer's self time is its span minus the union
// of its children's intervals, so concurrent children (the fleet's
// per-shard requests, the incremental engine's parallel store reads)
// are not double-subtracted.

type span struct {
	ID, Parent, Op int64
	Start, End     int64 // nanoseconds since the tracer's epoch
	Name           int32 // index into spanNames; keeps the slice pointer-free
}

// Span names. Store and shard spans are built per tier/shard.
var spanNames = []string{
	"op", "client.batch", "fleet.edge", "server.shard0", "server.shard1",
	"parser", "sema", "incr", "wal.open", "wal.close",
	"summary.snapshot_load", "summary.chain_save",
	"summary.get", "summary.put", "summary.mem.get", "summary.mem.put", "summary.disk.get", "summary.disk.put",
	"core.matrix", "core.intra",
}

func nameID(name string) int32 {
	for i, n := range spanNames {
		if n == name {
			return int32(i)
		}
	}
	panic("perfbench: unknown span name " + name)
}

type tracer struct {
	epoch time.Time
	next  atomic.Int64

	// cur, curOp and root name the layer span a single-caller op is
	// inside, the op and the op's root span; the summary.Store wrapper
	// parents its spans there, since the store interface carries no
	// context.
	cur, curOp, root atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) start(name string, parent, op int64) span {
	return span{ID: t.next.Add(1), Parent: parent, Op: op, Name: nameID(name), Start: t.now()}
}

func (t *tracer) finish(s span) span {
	s.End = t.now()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// enter starts a layer span of a single-caller op, a child of the op's
// root span, and makes it the parent of store spans until the next
// enter.
func (t *tracer) enter(name string, root, op int64) span {
	s := t.start(name, root, op)
	t.cur.Store(s.ID)
	t.curOp.Store(op)
	t.root.Store(root)
	return s
}

// byOp groups the recorded spans by op id.
func (t *tracer) byOp() map[int64][]span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[int64][]span)
	for _, s := range t.spans {
		out[s.Op] = append(out[s.Op], s)
	}
	return out
}

func (s span) dur() int64 { return s.End - s.Start }

// covered returns how much of [lo, hi) the spans cover, counting
// overlapping spans once.
func covered(spans []span, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		if v.a < end {
			v.a = end
		}
		total += v.b - v.a
		end = v.b
	}
	return total
}

// opSpans indexes one op's spans.
type opSpans struct {
	all      []span
	children map[int64][]span
}

func index(spans []span) opSpans {
	o := opSpans{all: spans, children: make(map[int64][]span)}
	for _, s := range spans {
		o.children[s.Parent] = append(o.children[s.Parent], s)
	}
	return o
}

// self is s's duration minus the part its children cover.
func (o opSpans) self(s span) int64 {
	return s.dur() - covered(o.children[s.ID], s.Start, s.End)
}

// named returns the op's spans with the given name.
func (o opSpans) named(name string) []span {
	id := nameID(name)
	var out []span
	for _, s := range o.all {
		if s.Name == id {
			out = append(out, s)
		}
	}
	return out
}

func (o opSpans) root() (span, bool) {
	r := o.named("op")
	if len(r) != 1 {
		return span{}, false
	}
	return r[0], true
}

// unattributed is the op's wall time no layer span covers.
func (o opSpans) unattributed() int64 {
	r, ok := o.root()
	if !ok {
		return 0
	}
	return r.dur() - covered(o.children[r.ID], r.Start, r.End)
}

func sumDur(spans []span) int64 {
	var n int64
	for _, s := range spans {
		n += s.dur()
	}
	return n
}

// dump writes every span, one JSON object per line, ordered by start.
func (t *tracer) dump(w io.Writer) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	bw := bufio.NewWriter(w)
	for _, s := range spans {
		fmt.Fprintf(bw, `{"id":%d,"parent":%d,"op":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.ID, s.Parent, s.Op, spanNames[s.Name], s.Start, s.End)
	}
	return bw.Flush()
}

// summaryLines aggregates the dump per span name: count, total and
// self milliseconds.
func (t *tracer) summaryLines() []string {
	type agg struct {
		n           int
		total, self int64
	}
	per := make(map[int32]*agg)
	for _, spans := range t.byOp() {
		o := index(spans)
		for _, s := range spans {
			a := per[s.Name]
			if a == nil {
				a = &agg{}
				per[s.Name] = a
			}
			a.n++
			a.total += s.dur()
			a.self += o.self(s)
		}
	}
	var lines []string
	for id, a := range per {
		lines = append(lines, fmt.Sprintf("span-summary %-22s count=%-7d total_ms=%-10.3f self_ms=%.3f",
			spanNames[id], a.n, float64(a.total)/1e6, float64(a.self)/1e6))
	}
	sort.Strings(lines)
	return lines
}

// ---------------------------------------------------------------------------
// HTTP propagation: the client's span reaches the fleet edge, and the
// edge's span reaches each shard, through one request header. The
// fleet's internal shard clients use http.DefaultTransport, so the
// traced run wraps it; untraced requests carry no context value and
// pass through unchanged.

const spanHeader = "X-Perfbench-Span"

type spanRef struct{ op, id int64 }

type spanKey struct{}

func withSpan(ctx context.Context, op, id int64) context.Context {
	return context.WithValue(ctx, spanKey{}, spanRef{op, id})
}

type traceTransport struct{ base http.RoundTripper }

// CloseIdleConnections passes through to the wrapped transport.
func (tt traceTransport) CloseIdleConnections() {
	if c, ok := tt.base.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

func (tt traceTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if ref, ok := r.Context().Value(spanKey{}).(spanRef); ok {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, fmt.Sprintf("%d/%d", ref.op, ref.id))
	}
	return tt.base.RoundTrip(r)
}

// traceHandler records a span named name around every request that
// carries the span header, parented on the caller's span.
func traceHandler(t *tracer, name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var op, parent int64
		if _, err := fmt.Sscanf(r.Header.Get(spanHeader), "%d/%d", &op, &parent); err != nil {
			h.ServeHTTP(w, r)
			return
		}
		s := t.start(name, parent, op)
		h.ServeHTTP(w, r.WithContext(withSpan(r.Context(), op, s.ID)))
		t.finish(s)
	})
}

// ---------------------------------------------------------------------------
// Store wrappers

// timedStore records a span around every Get and Put of a summary
// store: the whole stack as the incremental engine calls it, or one
// tier of it. Counts come from the tiers' own Stats.
type timedStore struct {
	summary.Store
	t         *tracer
	get, put  string
	asyncPuts bool
}

// newTimedStore wraps s, naming its spans prefix.get and prefix.put.
// asyncPuts marks a tier the stack writes back to in the background:
// those puts run on their own goroutines while the caller goes on, so
// their spans are children of the op's root span, not of the layer
// span the caller is in, and that layer's self time keeps their time.
func newTimedStore(t *tracer, prefix string, s summary.Store, asyncPuts bool) *timedStore {
	return &timedStore{Store: s, t: t, get: prefix + ".get", put: prefix + ".put", asyncPuts: asyncPuts}
}

func (s *timedStore) Get(k summary.Key) ([]byte, bool) {
	sp := s.t.start(s.get, s.t.cur.Load(), s.t.curOp.Load())
	v, ok := s.Store.Get(k)
	s.t.finish(sp)
	return v, ok
}

func (s *timedStore) Put(k summary.Key, v []byte) error {
	parent := s.t.cur.Load()
	if s.asyncPuts {
		parent = s.t.root.Load()
	}
	sp := s.t.start(s.put, parent, s.t.curOp.Load())
	err := s.Store.Put(k, v)
	s.t.finish(sp)
	return err
}
