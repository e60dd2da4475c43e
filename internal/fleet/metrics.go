package fleet

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ipcp/internal/server"
)

// Fleet-level instrumentation, merged into the same Prometheus text
// exposition the single-process server emits: per-shard request,
// routing-distribution, and restart counters; per-endpoint latency
// histograms over the whole dispatch (queue + worker + wire); the
// batch size histogram and per-item outcome counters. Everything is
// hand-rolled over sync/atomic — the module is dependency-free by
// policy — and shares the server package's Histogram.

type fleetMetrics struct {
	start     time.Time
	shards    []*shardMetrics
	latency   map[string]*server.Histogram // per endpoint
	batchSize *server.Histogram

	reroutes    atomic.Int64 // requests and batch items failed over to a runner-up shard
	noWorkers   atomic.Int64 // requests and batch items refused: empty healthy set
	batchItems  atomic.Int64 // batch items answered with a report
	batchErrors atomic.Int64 // batch items answered with a per-item error
}

type shardMetrics struct {
	routed atomic.Int64 // requests and batch items routed here (routing distribution)

	mu       sync.Mutex
	requests map[string]map[int]int64 // endpoint → status → count
}

var fleetEndpoints = []string{"analyze", "batch", "matrix", "transform"}

func newFleetMetrics(n int) *fleetMetrics {
	m := &fleetMetrics{
		start:     time.Now(),
		shards:    make([]*shardMetrics, n),
		latency:   make(map[string]*server.Histogram, len(fleetEndpoints)),
		batchSize: server.NewHistogram(server.BatchSizeBounds),
	}
	for i := range m.shards {
		m.shards[i] = &shardMetrics{requests: make(map[string]map[int]int64)}
	}
	for _, ep := range fleetEndpoints {
		m.latency[ep] = server.NewHistogram(server.LatencyBounds)
	}
	return m
}

// routed counts one dispatch landing on a shard.
func (m *fleetMetrics) routed(shard int) {
	if shard >= 0 && shard < len(m.shards) {
		m.shards[shard].routed.Add(1)
	}
}

// request tallies one worker call's outcome under its shard.
func (m *fleetMetrics) request(shard int, endpoint string, status int) {
	if shard < 0 || shard >= len(m.shards) {
		return
	}
	s := m.shards[shard]
	s.mu.Lock()
	byCode := s.requests[endpoint]
	if byCode == nil {
		byCode = make(map[int]int64)
		s.requests[endpoint] = byCode
	}
	byCode[status]++
	s.mu.Unlock()
}

// observe records one edge request's latency (server.Instrument's recorder).
func (m *fleetMetrics) observe(endpoint string, status int, elapsed time.Duration) {
	if h := m.latency[endpoint]; h != nil {
		h.Observe(elapsed.Seconds())
	}
}

// write renders the exposition; shard readiness and restart counts are
// sampled from the supervisor and passed in.
func (m *fleetMetrics) write(w io.Writer, shards []ShardStatus) {
	ready := 0
	for _, st := range shards {
		if st.Ready {
			ready++
		}
	}
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge("ipcpd_fleet_workers", "Configured worker shards.", int64(len(shards)))
	gauge("ipcpd_fleet_ready_workers", "Shards currently in the routing set.", int64(ready))

	fmt.Fprintf(w, "# HELP ipcpd_fleet_requests_total Worker calls by shard, endpoint, and status.\n")
	fmt.Fprintf(w, "# TYPE ipcpd_fleet_requests_total counter\n")
	for i, s := range m.shards {
		s.mu.Lock()
		eps := make([]string, 0, len(s.requests))
		for ep := range s.requests {
			eps = append(eps, ep)
		}
		sort.Strings(eps)
		for _, ep := range eps {
			codes := make([]int, 0, len(s.requests[ep]))
			for c := range s.requests[ep] {
				codes = append(codes, c)
			}
			sort.Ints(codes)
			for _, c := range codes {
				fmt.Fprintf(w, "ipcpd_fleet_requests_total{shard=\"%d\",endpoint=%q,code=\"%d\"} %d\n",
					i, ep, c, s.requests[ep][c])
			}
		}
		s.mu.Unlock()
	}

	fmt.Fprintf(w, "# HELP ipcpd_fleet_routed_total Requests and batch items routed to each shard (routing distribution).\n")
	fmt.Fprintf(w, "# TYPE ipcpd_fleet_routed_total counter\n")
	for i, s := range m.shards {
		fmt.Fprintf(w, "ipcpd_fleet_routed_total{shard=\"%d\"} %d\n", i, s.routed.Load())
	}

	fmt.Fprintf(w, "# HELP ipcpd_fleet_restarts_total Crash restarts per shard.\n")
	fmt.Fprintf(w, "# TYPE ipcpd_fleet_restarts_total counter\n")
	for _, st := range shards {
		fmt.Fprintf(w, "ipcpd_fleet_restarts_total{shard=\"%d\"} %d\n", st.Shard, st.Restarts)
	}

	fmt.Fprintf(w, "# HELP ipcpd_fleet_request_duration_seconds Edge request latency by endpoint.\n")
	fmt.Fprintf(w, "# TYPE ipcpd_fleet_request_duration_seconds histogram\n")
	for _, ep := range fleetEndpoints {
		m.latency[ep].Expose(w, "ipcpd_fleet_request_duration_seconds", fmt.Sprintf("endpoint=%q", ep))
	}

	fmt.Fprintf(w, "# HELP ipcpd_fleet_batch_size Items per /v1/batch request.\n")
	fmt.Fprintf(w, "# TYPE ipcpd_fleet_batch_size histogram\n")
	m.batchSize.Expose(w, "ipcpd_fleet_batch_size", "")

	counter("ipcpd_fleet_batch_items_total", "Batch items answered with a report.", m.batchItems.Load())
	counter("ipcpd_fleet_batch_item_errors_total", "Batch items answered with a per-item error.", m.batchErrors.Load())
	counter("ipcpd_fleet_reroutes_total", "Requests and batch items failed over to a runner-up shard.", m.reroutes.Load())
	counter("ipcpd_fleet_no_worker_total", "Requests and batch items refused because no shard was ready.", m.noWorkers.Load())
	fmt.Fprintf(w, "# HELP ipcpd_fleet_uptime_seconds Seconds since the router started.\n# TYPE ipcpd_fleet_uptime_seconds gauge\nipcpd_fleet_uptime_seconds %g\n",
		time.Since(m.start).Seconds())
}
