package server

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ipcp"
)

// This file implements the server's metrics: counters, a latency
// histogram per endpoint, and gauges, exposed in the Prometheus text
// format at GET /metrics. Everything is hand-rolled over sync/atomic —
// the module is dependency-free by policy — and the exposition is the
// de-facto standard so any scraper can consume it.

// LatencyBounds are the request-latency histogram bucket upper bounds,
// in seconds, shared by this package and the fleet router's metrics.
var LatencyBounds = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// BatchSizeBounds are the bucket upper bounds for batch-size
// histograms (items per /v1/batch request).
var BatchSizeBounds = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}

// Histogram is a fixed-bucket histogram exposed in the Prometheus text
// format. It is exported so internal/fleet shares one implementation.
type Histogram struct {
	bounds []float64
	mu     sync.Mutex
	counts []int64 // one per bound, plus +Inf
	sum    float64
	total  int64
}

// NewHistogram returns a histogram over the given ascending bucket
// upper bounds (plus an implicit +Inf bucket).
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.total++
}

// Expose writes the histogram's cumulative bucket, sum, and count
// series for the metric name. labels, when non-empty, is a rendered
// label list without braces (`endpoint="analyze"`) merged into each
// series alongside le.
func (h *Histogram) Expose(w io.Writer, name, labels string) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	cum := int64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i]
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"%g\"} %d\n", name, labels, sep, bound, cum)
	}
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, h.total)
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %g\n%s_count %d\n", name, h.sum, name, h.total)
		return
	}
	fmt.Fprintf(w, "%s_sum{%s} %g\n%s_count{%s} %d\n", name, labels, h.sum, name, labels, h.total)
}

// endpointMetrics is one endpoint's request tally.
type endpointMetrics struct {
	mu      sync.Mutex
	byCode  map[int]int64
	latency *Histogram
}

func (e *endpointMetrics) record(code int, seconds float64) {
	e.mu.Lock()
	e.byCode[code]++
	e.mu.Unlock()
	e.latency.Observe(seconds)
}

// metrics is the server-wide instrumentation.
type metrics struct {
	start     time.Time
	endpoints map[string]*endpointMetrics
	batchSize *Histogram // items per /v1/batch request

	inFlight    atomic.Int64 // requests admitted and not yet answered
	coalesced   atomic.Int64 // responses served from an identical in-flight request
	rejected    atomic.Int64 // admissions refused with 429
	timeouts    atomic.Int64 // requests abandoned at their deadline
	gcRuns      atomic.Int64 // cache GC sweeps
	gcDeleted   atomic.Int64 // files cache GC deleted
	snapEvicted atomic.Int64 // resident snapshots dropped by the LRU bound
	batchItems  atomic.Int64 // batch items answered with a report
	batchErrors atomic.Int64 // batch items answered with a per-item error
}

func newMetrics(endpoints ...string) *metrics {
	m := &metrics{
		start:     time.Now(),
		endpoints: make(map[string]*endpointMetrics, len(endpoints)),
		batchSize: NewHistogram(BatchSizeBounds),
	}
	for _, ep := range endpoints {
		m.endpoints[ep] = &endpointMetrics{byCode: make(map[int]int64), latency: NewHistogram(LatencyBounds)}
	}
	return m
}

// record tallies one finished request.
func (m *metrics) record(endpoint string, code int, elapsed time.Duration) {
	if e := m.endpoints[endpoint]; e != nil {
		e.record(code, elapsed.Seconds())
	}
}

// write renders the exposition. The point-in-time gauges the metrics
// struct does not own — queue depth, snapshot count, the summary
// cache's counters — are sampled by the caller and passed in.
func (m *metrics) write(w io.Writer, queueDepth, snapshots int, cache ipcp.CacheStats) {
	names := make([]string, 0, len(m.endpoints))
	for ep := range m.endpoints {
		names = append(names, ep)
	}
	sort.Strings(names)

	fmt.Fprintf(w, "# HELP ipcpd_requests_total Served requests by endpoint and status code.\n")
	fmt.Fprintf(w, "# TYPE ipcpd_requests_total counter\n")
	for _, ep := range names {
		e := m.endpoints[ep]
		e.mu.Lock()
		codes := make([]int, 0, len(e.byCode))
		for c := range e.byCode {
			codes = append(codes, c)
		}
		sort.Ints(codes)
		for _, c := range codes {
			fmt.Fprintf(w, "ipcpd_requests_total{endpoint=%q,code=\"%d\"} %d\n", ep, c, e.byCode[c])
		}
		e.mu.Unlock()
	}

	fmt.Fprintf(w, "# HELP ipcpd_request_duration_seconds Request latency by endpoint.\n")
	fmt.Fprintf(w, "# TYPE ipcpd_request_duration_seconds histogram\n")
	for _, ep := range names {
		m.endpoints[ep].latency.Expose(w, "ipcpd_request_duration_seconds", fmt.Sprintf("endpoint=%q", ep))
	}

	fmt.Fprintf(w, "# HELP ipcpd_batch_size Items per /v1/batch request.\n")
	fmt.Fprintf(w, "# TYPE ipcpd_batch_size histogram\n")
	m.batchSize.Expose(w, "ipcpd_batch_size", "")

	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge("ipcpd_in_flight", "Requests admitted and not yet answered.", m.inFlight.Load())
	gauge("ipcpd_queue_depth", "Admitted jobs waiting for a worker.", int64(queueDepth))
	gauge("ipcpd_snapshots", "Resident program-lineage snapshots.", int64(snapshots))
	counter("ipcpd_snapshot_evictions_total", "Resident snapshots dropped by the MaxSnapshots LRU bound.", m.snapEvicted.Load())
	counter("ipcpd_batch_items_total", "Batch items answered with a report.", m.batchItems.Load())
	counter("ipcpd_batch_item_errors_total", "Batch items answered with a per-item error.", m.batchErrors.Load())
	counter("ipcpd_coalesced_total", "Responses served from an identical in-flight request.", m.coalesced.Load())
	counter("ipcpd_rejected_total", "Requests refused by admission control (429).", m.rejected.Load())
	counter("ipcpd_timeouts_total", "Requests abandoned at their deadline (504).", m.timeouts.Load())
	counter("ipcpd_summary_cache_hits_total", "Summary-store lookups that found an entry.", cache.Hits)
	counter("ipcpd_summary_cache_misses_total", "Summary-store lookups that found nothing.", cache.Misses)
	counter("ipcpd_summary_cache_puts_total", "Summaries written to the store.", cache.Puts)
	counter("ipcpd_summary_cache_put_bytes_total", "Bytes of summaries written to the store.", cache.BytesSaved)
	counter("ipcpd_summary_cache_evictions_total", "Summaries evicted by a bounded store.", cache.Evictions)
	counter("ipcpd_summary_cache_errors_total", "Summary-store operations that failed (I/O or remote faults, degraded to misses).", cache.Errors)
	counter("ipcpd_cache_gc_runs_total", "Cache GC sweeps completed.", m.gcRuns.Load())
	counter("ipcpd_cache_gc_deleted_total", "Files deleted by cache GC.", m.gcDeleted.Load())
	fmt.Fprintf(w, "# HELP ipcpd_uptime_seconds Seconds since the server started.\n# TYPE ipcpd_uptime_seconds gauge\nipcpd_uptime_seconds %g\n",
		time.Since(m.start).Seconds())
}
