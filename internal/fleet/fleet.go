// Package fleet turns ipcpd into a horizontally scaled service: one
// front-end router owning admission and a listener, dispatching
// requests to N shared-nothing worker processes — each a full ipcpd on
// a loopback port — by rendezvous hashing on the lineage key, so a
// lineage's resident snapshot and cached summaries always live on
// exactly one worker and incremental re-analyses stay hot (the serving
// form of value-context reuse: route the query to the owner of its
// cached context). The supervisor health-checks workers, restarts
// crashes with bounded backoff, re-routes a down shard's lineages to
// the rendezvous runner-up, and drains everything gracefully on
// SIGTERM. POST /v1/batch sends each shard one sub-batch of the
// sources it owns, concurrently, and relays per-item statuses. See
// DESIGN.md, "The analysis fleet".
package fleet

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ipcp/internal/server"
	"ipcp/internal/server/client"
)

// Config tunes a Fleet. Workers and Start are required; every other
// field has a serving default.
type Config struct {
	// Workers is the number of shards.
	Workers int

	// Start launches one shard (ProcessSpawner for real worker
	// processes; tests inject in-process servers).
	Start StartWorker

	// BackoffMin and BackoffMax bound the restart backoff after a
	// worker crash: the first restart waits BackoffMin, doubling per
	// consecutive failure up to BackoffMax, resetting once a worker
	// becomes ready (defaults 100ms and 5s).
	BackoffMin time.Duration
	BackoffMax time.Duration

	// DrainTimeout bounds each worker's graceful drain during shutdown
	// before it is killed (default 30s).
	DrainTimeout time.Duration

	// Log, when non-nil, receives supervision events.
	Log *log.Logger
}

// retryBusy caps the wait before the one retry a dispatch makes when a
// worker sheds it with 429.
const retryBusy = 2 * time.Second

// readyTimeout bounds how long a freshly started worker may take to
// answer /readyz before it is killed and retried.
const readyTimeout = 30 * time.Second

// Fleet is the routing front end plus its supervised worker set.
// Create with New, call Start to spawn the workers, mount Handler (or
// call Serve), and stop with Shutdown.
type Fleet struct {
	cfg     Config
	sup     *supervisor
	metrics *fleetMetrics

	mu      sync.Mutex
	clients map[string]*client.Client
	httpSrv *http.Server

	ready atomic.Bool
}

// New builds a Fleet. Workers must be positive and Start non-nil.
func New(cfg Config) (*Fleet, error) {
	if cfg.Workers <= 0 {
		return nil, errors.New("fleet: Workers must be positive")
	}
	if cfg.Start == nil {
		return nil, errors.New("fleet: Config.Start is required")
	}
	if cfg.BackoffMin <= 0 {
		cfg.BackoffMin = 100 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 5 * time.Second
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 30 * time.Second
	}
	f := &Fleet{
		cfg:     cfg,
		metrics: newFleetMetrics(cfg.Workers),
		clients: make(map[string]*client.Client),
	}
	f.sup = newSupervisor(cfg.Start, cfg.Workers,
		cfg.BackoffMin, cfg.BackoffMax, cfg.DrainTimeout, f.logf)
	return f, nil
}

// Start spawns the workers and blocks until every shard is ready or
// ctx expires (supervision keeps running either way; a worker that
// missed the barrier keeps being retried).
func (f *Fleet) Start(ctx context.Context) error {
	f.sup.run()
	err := f.sup.waitReady(ctx)
	if err == nil {
		f.ready.Store(true)
	}
	return err
}

// Handler returns the router's HTTP surface: the worker endpoints
// dispatched by lineage, the batch fan-out, and the fleet's own
// health/metrics.
func (f *Fleet) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", server.Instrument("analyze", f.forward("analyze"), f.metrics.observe))
	mux.HandleFunc("POST /v1/transform", server.Instrument("transform", f.forward("transform"), f.metrics.observe))
	mux.HandleFunc("POST /v1/batch", server.Instrument("batch", f.handleBatch, f.metrics.observe))
	mux.HandleFunc("GET /v1/matrix", server.Instrument("matrix", f.handleMatrix, f.metrics.observe))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if !f.ready.Load() || len(f.sup.healthy()) == 0 {
			http.Error(w, "no ready workers", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		f.metrics.write(w, f.sup.snapshot())
	})
	return mux
}

// Serve accepts connections on l until Shutdown.
func (f *Fleet) Serve(l net.Listener) error {
	srv := &http.Server{Handler: f.Handler(), ReadHeaderTimeout: 10 * time.Second}
	f.mu.Lock()
	f.httpSrv = srv
	f.mu.Unlock()
	err := srv.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown drains the fleet front to back: readiness goes false, the
// router stops accepting and waits for open requests (which may still
// be dispatching to workers — workers drain after the router), then
// every worker is stopped gracefully (SIGTERM forwarded, in-flight
// work awaited) within its drain timeout.
func (f *Fleet) Shutdown(ctx context.Context) error {
	f.ready.Store(false)
	f.mu.Lock()
	srv := f.httpSrv
	f.mu.Unlock()
	var err error
	if srv != nil {
		err = srv.Shutdown(ctx)
	}
	f.sup.stop()
	return err
}

// Shards reports every shard's state (address, readiness, restarts).
func (f *Fleet) Shards() []ShardStatus {
	return f.sup.snapshot()
}

// client returns the (cached) client for a worker address, with the
// router's 429-retry policy applied.
func (f *Fleet) client(addr string) *client.Client {
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.clients[addr]; ok {
		return c
	}
	c := client.New(addr).RetryBusy(retryBusy)
	f.clients[addr] = c
	return c
}

func (f *Fleet) logf(format string, args ...any) {
	if f.cfg.Log != nil {
		f.cfg.Log.Printf(format, args...)
	}
}
