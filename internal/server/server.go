package server

import (
	"bytes"
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ipcp"
	"ipcp/internal/suite"
	"ipcp/internal/summary"
)

// Config tunes a Server. The zero value is usable: every field has a
// default chosen for an interactive daemon.
type Config struct {
	// Workers is the number of analyses that may run concurrently
	// (default: GOMAXPROCS). The server parallelizes across requests;
	// each analysis runs with the pipeline workers its request asked
	// for (default 1).
	Workers int

	// QueueDepth bounds how many admitted requests may wait for a
	// worker (default: 4×Workers). A request arriving past the bound is
	// rejected with 429 + Retry-After rather than queued.
	QueueDepth int

	// DefaultTimeout is the per-request deadline when the request does
	// not carry its own (default: 30s). MaxTimeout caps what a request
	// may ask for (default: 2m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration

	// CacheDir persists the summary cache on disk, shared with every
	// cmd/ipcp -cache-dir run pointed at the same directory. Empty
	// keeps the cache in memory only.
	CacheDir string

	// CacheBudget is the byte budget GC sweeps the disk cache down to
	// (0 = delete only unreferenced entries). GCInterval enables
	// periodic sweeps (0 = only on demand via GC).
	CacheBudget int64
	GCInterval  time.Duration

	// RemoteCache, when non-empty, layers a shared remote blob tier —
	// another ipcpd's /v1/blob endpoint — behind the local cache, so
	// shard-local caches share procedure summaries fleet-wide. Each
	// summary put waits for the remote's acknowledgment; remote faults
	// degrade to misses and are logged.
	RemoteCache string

	// MaxSnapshots bounds the resident snapshot map: the server keeps
	// the snapshots of at most this many program lineages (default 64),
	// evicting the least recently used past the bound. Eviction only
	// costs the next request in that lineage a cold re-analysis — its
	// summaries are still in the cache — so the bound is a memory
	// ceiling, not a correctness knob.
	MaxSnapshots int

	// Log, when non-nil, receives operational messages (GC sweeps,
	// background errors). Request serving never logs.
	Log *log.Logger
}

// Server is the resident analysis service. Create one with New, mount
// Handler on any mux or call Serve, and stop with Shutdown.
type Server struct {
	cfg     Config
	cache   *ipcp.SummaryCache
	pool    *pool
	flights *flightGroup
	metrics *metrics

	// snapshots maps a lineage — configuration cache key + program
	// name — to the snapshot its last analysis left behind, so the next
	// request in the lineage re-analyzes only what changed. The map is
	// LRU-bounded at cfg.MaxSnapshots; snapOrder keeps the recency list
	// (front = most recently used).
	mu        sync.Mutex
	snapshots map[string]*list.Element
	snapOrder *list.List
	httpSrv   *http.Server

	ready  atomic.Bool
	gcStop chan struct{}
	gcOnce sync.Once
	gcDone sync.WaitGroup

	// gate, when non-nil, is called by each analyze/transform job on a
	// worker before analysis begins — a test hook that holds a leader
	// in flight so coalescing can be observed deterministically.
	gate func()
}

// New builds a Server (opening the disk cache if configured) and
// starts its worker pool and, when configured, its periodic GC.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * cfg.Workers
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 30 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 2 * time.Minute
	}
	if cfg.MaxSnapshots <= 0 {
		cfg.MaxSnapshots = 64
	}
	var cache *ipcp.SummaryCache
	if cfg.CacheDir != "" {
		// Memory in front of disk (in front of the remote): every put
		// is on disk before it returns, so a crash loses no
		// acknowledged put.
		var err error
		cache, _, err = ipcp.NewDurableCache(ipcp.DurableCacheOptions{
			Dir:        cfg.CacheDir,
			RemoteURL:  cfg.RemoteCache,
			MemEntries: 4096,
		})
		if err != nil {
			return nil, err
		}
	} else {
		cache = ipcp.NewMemoryCache()
		if cfg.RemoteCache != "" {
			cache = ipcp.NewTieredCache(cache, ipcp.NewRemoteCache(cfg.RemoteCache))
		}
	}
	s := &Server{
		cfg:       cfg,
		cache:     cache,
		pool:      newPool(cfg.Workers, cfg.QueueDepth),
		flights:   newFlightGroup(),
		metrics:   newMetrics("analyze", "transform", "matrix", "batch", "blob"),
		snapshots: make(map[string]*list.Element),
		snapOrder: list.New(),
		gcStop:    make(chan struct{}),
	}
	s.ready.Store(true)
	if cfg.CacheDir != "" && cfg.GCInterval > 0 {
		s.gcDone.Add(1)
		go s.gcLoop()
	}
	return s, nil
}

// Handler returns the server's HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/analyze", s.instrument("analyze", s.handleAnalyze))
	mux.HandleFunc("POST /v1/transform", s.instrument("transform", s.handleTransform))
	mux.HandleFunc("POST /v1/batch", s.instrument("batch", s.handleBatch))
	mux.HandleFunc("GET /v1/matrix", s.instrument("matrix", s.handleMatrix))
	mux.HandleFunc("GET /v1/blob/{key}", s.instrument("blob", s.handleBlobGet))
	mux.HandleFunc("PUT /v1/blob/{key}", s.instrument("blob", s.handleBlobPut))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if !s.ready.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		s.metrics.write(w, s.pool.depth(), s.snapshotCount(), s.cache.Stats())
	})
	return mux
}

// Serve accepts connections on l until Shutdown. It returns nil after
// a graceful shutdown.
func (s *Server) Serve(l net.Listener) error {
	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}
	s.mu.Lock()
	s.httpSrv = srv
	s.mu.Unlock()
	err := srv.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown drains the server: readiness goes false (load balancers
// stop sending), the HTTP server stops accepting and waits for open
// requests up to ctx's deadline, then the worker pool finishes every
// admitted job (a job's summary puts have landed in every cache tier
// by the time it finishes), and the GC loop stops. Admissions racing
// with shutdown get 503.
func (s *Server) Shutdown(ctx context.Context) error {
	s.ready.Store(false)
	s.mu.Lock()
	srv := s.httpSrv
	s.mu.Unlock()
	var err error
	if srv != nil {
		err = srv.Shutdown(ctx)
	}
	s.pool.drain()
	s.gcOnce.Do(func() { close(s.gcStop) })
	s.gcDone.Wait()
	return err
}

// GC sweeps the disk cache now (no-op without a CacheDir), pinning the
// resident snapshots so warm lineages stay warm.
func (s *Server) GC() (ipcp.CacheGCStats, error) {
	if s.cfg.CacheDir == "" {
		return ipcp.CacheGCStats{}, nil
	}
	s.mu.Lock()
	live := make([]*ipcp.Snapshot, 0, len(s.snapshots))
	for _, el := range s.snapshots {
		//lint:ignore mapiter CacheGC consumes the live snapshots as an unordered pin set; nothing observes their order
		live = append(live, el.Value.(*lineageSnap).snap)
	}
	s.mu.Unlock()
	st, err := ipcp.CacheGC(s.cfg.CacheDir, s.cfg.CacheBudget, live...)
	if err == nil {
		s.metrics.gcRuns.Add(1)
		s.metrics.gcDeleted.Add(int64(st.Unreferenced + st.OverBudget))
	}
	return st, err
}

func (s *Server) gcLoop() {
	defer s.gcDone.Done()
	t := time.NewTicker(s.cfg.GCInterval)
	defer t.Stop()
	for {
		select {
		case <-s.gcStop:
			return
		case <-t.C:
			st, err := s.GC()
			if err != nil {
				s.logf("cache gc: %v", err)
			} else {
				s.logf("cache gc: %s", st)
			}
		}
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		s.cfg.Log.Printf(format, args...)
	}
}

// ---------------------------------------------------------------------------
// Endpoints

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req AnalyzeRequest
	if _, ok := Decode(w, r, &req); !ok {
		return
	}
	cfg, err := req.Config.Config()
	if err != nil {
		Fail(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := s.deadline(r.Context(), req.TimeoutMS)
	defer cancel()

	rep, shared, err := s.analyzeFlight(ctx, req.Source, req.Program, cfg)
	if err != nil {
		s.failErr(w, err)
		return
	}
	s.reply(w, AnalyzeResponse{Report: rep, Coalesced: shared})
}

// analyzeFlight serves one source analysis the standard way — parse,
// coalesce with identical in-flight requests, run on the worker pool,
// re-analyze incrementally against the lineage's resident snapshot. It
// is the shared core of /v1/analyze and each /v1/batch item.
func (s *Server) analyzeFlight(ctx context.Context, source, program string, cfg ipcp.Config) (*ipcp.Report, bool, error) {
	prog, err := ipcp.Load(source)
	if err != nil {
		return nil, false, &badRequestError{err}
	}
	lineage := ipcp.FlavorCacheKey(cfg) + "\x00" + program
	key := "analyze\x00" + lineage + "\x00" + sourceHash(source)
	val, err, shared := s.flights.do(ctx, key, func() (any, error) {
		return s.run(ctx, func() (any, error) {
			return s.analyze(ctx, prog, cfg, lineage)
		})
	})
	if shared {
		s.metrics.coalesced.Add(1)
	}
	if err != nil {
		return nil, shared, err
	}
	return val.(*ipcp.Report), shared, nil
}

func (s *Server) handleTransform(w http.ResponseWriter, r *http.Request) {
	var req TransformRequest
	if _, ok := Decode(w, r, &req); !ok {
		return
	}
	cfg, err := req.Config.Config()
	if err != nil {
		Fail(w, http.StatusBadRequest, err)
		return
	}
	prog, err := ipcp.Load(req.Source)
	if err != nil {
		Fail(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel := s.deadline(r.Context(), req.TimeoutMS)
	defer cancel()

	lineage := ipcp.FlavorCacheKey(cfg) + "\x00" + req.Program
	key := "transform\x00" + lineage + "\x00" + sourceHash(req.Source)
	val, err, shared := s.flights.do(ctx, key, func() (any, error) {
		return s.run(ctx, func() (any, error) {
			rep, err := s.analyze(ctx, prog, cfg, lineage)
			if err != nil {
				return nil, err
			}
			src, n, err := prog.TransformedSource(rep)
			if err != nil {
				return nil, err
			}
			return &TransformResponse{Source: src, Substituted: n}, nil
		})
	})
	if shared {
		s.metrics.coalesced.Add(1)
	}
	if err != nil {
		s.failErr(w, err)
		return
	}
	resp := *val.(*TransformResponse)
	resp.Coalesced = shared
	s.reply(w, resp)
}

func (s *Server) handleMatrix(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("program")
	scale := suite.DefaultScale
	if v := r.URL.Query().Get("scale"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			Fail(w, http.StatusBadRequest, fmt.Errorf("bad scale %q", v))
			return
		}
		scale = n
	}
	gen := suite.Generate(name, scale)
	if gen == nil {
		Fail(w, http.StatusNotFound,
			fmt.Errorf("unknown program %q (have %v)", name, suite.Names()))
		return
	}
	var timeoutMS int64
	if v := r.URL.Query().Get("timeout_ms"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			Fail(w, http.StatusBadRequest, fmt.Errorf("bad timeout_ms %q", v))
			return
		}
		timeoutMS = n
	}
	ctx, cancel := s.deadline(r.Context(), timeoutMS)
	defer cancel()

	key := fmt.Sprintf("matrix\x00%s\x00%d", name, scale)
	val, err, shared := s.flights.do(ctx, key, func() (any, error) {
		return s.run(ctx, func() (any, error) {
			prog, err := ipcp.Load(gen.Source)
			if err != nil {
				return nil, err
			}
			cfgs := ipcp.FullMatrix()
			reports, err := prog.AnalyzeMatrixContext(ctx, cfgs, 1)
			if err != nil {
				return nil, err
			}
			resp := &MatrixResponse{Program: name, Scale: scale, Reports: reports}
			for _, cfg := range cfgs {
				resp.Configs = append(resp.Configs, ConfigOf(cfg))
			}
			return resp, nil
		})
	})
	if shared {
		s.metrics.coalesced.Add(1)
	}
	if err != nil {
		s.failErr(w, err)
		return
	}
	resp := *val.(*MatrixResponse)
	resp.Coalesced = shared
	s.reply(w, resp)
}

// handleBlobGet serves one raw summary blob by content address — the
// remote tier of a client's layered cache (summary.RemoteStore) reads
// through it. The body is the blob verbatim; X-Blob-Sum carries its
// hex sha256 so the client can detect truncation or corruption.
func (s *Server) handleBlobGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	data, ok, err := s.cache.GetBlob(key)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if !ok {
		http.Error(w, "blob not found", http.StatusNotFound)
		return
	}
	sum := sha256.Sum256(data)
	w.Header().Set("X-Blob-Sum", hex.EncodeToString(sum[:]))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	w.Write(data)
}

// handleBlobPut accepts one raw summary blob for the shared cache.
// The key is the content address the client computed; when the
// request carries X-Blob-Sum the body is verified against it before
// anything is stored, so a blob truncated in transit is rejected
// rather than cached.
func (s *Server) handleBlobPut(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	body := http.MaxBytesReader(w, r.Body, summary.MaxBlobSize)
	data, err := io.ReadAll(body)
	if err != nil {
		http.Error(w, "blob too large or unreadable", http.StatusRequestEntityTooLarge)
		return
	}
	if want := r.Header.Get("X-Blob-Sum"); want != "" {
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); !strings.EqualFold(got, want) {
			http.Error(w, "blob checksum mismatch", http.StatusBadRequest)
			return
		}
	}
	if err := s.cache.PutBlob(key, data); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// analyze runs one incremental analysis inside a pool worker and
// advances the lineage's snapshot. A summary the run failed to store
// is logged; the report stands.
func (s *Server) analyze(ctx context.Context, prog *ipcp.Program, cfg ipcp.Config, lineage string) (*ipcp.Report, error) {
	if s.gate != nil {
		s.gate()
	}
	rep, snap, err := prog.AnalyzeIncrementalContext(ctx, cfg, s.snapshot(lineage), s.cache)
	if err != nil {
		return nil, err
	}
	if err := rep.Incremental.StoreErr; err != nil {
		s.logf("cache write: %v", err)
	}
	s.setSnapshot(lineage, snap)
	return rep, nil
}

// run executes fn on the worker pool, failing fast when admission is
// refused and abandoning the wait (not the job slot: a job that loses
// its caller aborts on its first context check) when ctx expires.
func (s *Server) run(ctx context.Context, fn func() (any, error)) (any, error) {
	type result struct {
		val any
		err error
	}
	resc := make(chan result, 1)
	err := s.pool.submit(func() {
		if err := ctx.Err(); err != nil {
			resc <- result{nil, err}
			return
		}
		v, e := fn()
		resc <- result{v, e}
	})
	if err != nil {
		return nil, err
	}
	select {
	case res := <-resc:
		return res.val, res.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// ---------------------------------------------------------------------------
// Plumbing

// lineageSnap is one resident snapshot with its key, stored as a
// snapOrder list element so eviction can find the map entry again.
type lineageSnap struct {
	lineage string
	snap    *ipcp.Snapshot
}

func (s *Server) snapshot(lineage string) *ipcp.Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	el := s.snapshots[lineage]
	if el == nil {
		return nil
	}
	s.snapOrder.MoveToFront(el)
	return el.Value.(*lineageSnap).snap
}

func (s *Server) setSnapshot(lineage string, snap *ipcp.Snapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el := s.snapshots[lineage]; el != nil {
		el.Value.(*lineageSnap).snap = snap
		s.snapOrder.MoveToFront(el)
		return
	}
	s.snapshots[lineage] = s.snapOrder.PushFront(&lineageSnap{lineage: lineage, snap: snap})
	//lint:ignore cancelpoll LRU eviction strictly shrinks len(s.snapshots) each iteration until it meets the budget
	for len(s.snapshots) > s.cfg.MaxSnapshots {
		oldest := s.snapOrder.Back()
		delete(s.snapshots, oldest.Value.(*lineageSnap).lineage)
		s.snapOrder.Remove(oldest)
		s.metrics.snapEvicted.Add(1)
	}
}

func (s *Server) snapshotCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.snapshots)
}

// deadline derives the request context: the request's own timeout,
// defaulted and capped by the server's configuration.
func (s *Server) deadline(parent context.Context, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return context.WithTimeout(parent, d)
}

func sourceHash(source string) string {
	sum := sha256.Sum256([]byte(source))
	return hex.EncodeToString(sum[:])
}

// Instrument wraps an endpoint so that record receives its name, the
// status it wrote and its latency. The fleet edge instruments its
// endpoints with it too.
func Instrument(endpoint string, h http.HandlerFunc, record func(endpoint string, code int, elapsed time.Duration)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		record(endpoint, sw.code, time.Since(start))
	}
}

// instrument adds the in-flight gauge to Instrument's per-endpoint
// request counter and latency histogram.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	h = Instrument(endpoint, h, s.metrics.record)
	return func(w http.ResponseWriter, r *http.Request) {
		s.metrics.inFlight.Add(1)
		defer s.metrics.inFlight.Add(-1)
		h(w, r)
	}
}

// statusWriter remembers the status code an endpoint wrote.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the wrapped writer so the batch NDJSON stream stays
// incremental through the instrumentation wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// MaxBodyBytes bounds a JSON request body. A fleet edge reads bodies
// under the same bound, so it accepts exactly what a server does.
const MaxBodyBytes = 32 << 20

// Decode reads a JSON request body of at most MaxBodyBytes into v,
// answering 400 itself on failure. It returns the body as read, which
// a fleet edge forwards unchanged.
func Decode(w http.ResponseWriter, r *http.Request, v any) ([]byte, bool) {
	// A bytes.Buffer grows by doubling, so reading the body whole costs
	// about what streaming it through a json.Decoder does; io.ReadAll
	// grows in smaller steps and allocates about a third more.
	var body bytes.Buffer
	_, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err == nil {
		err = json.Unmarshal(body.Bytes(), v)
	}
	if err != nil {
		Fail(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return nil, false
	}
	return body.Bytes(), true
}

func (s *Server) reply(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// The response is already partially written; nothing to mend.
		s.logf("encode response: %v", err)
	}
}

// Fail answers code with err's text as the JSON error body.
func Fail(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(ErrorResponse{Error: err.Error()})
}

// badRequestError marks an analysis-path failure the client caused
// (unparseable source), so errStatus answers 400 rather than 500.
type badRequestError struct{ err error }

func (e *badRequestError) Error() string { return e.err.Error() }
func (e *badRequestError) Unwrap() error { return e.err }

// errStatus maps an analysis-path error to its status, counting the
// shed/timeout metrics as a side effect: client errors to 400,
// admission refusal to 429, shutdown to 503, deadline expiry and
// cancellation to 504, anything else to 500. failErr and the per-item
// batch path share it.
func (s *Server) errStatus(err error) int {
	var bad *badRequestError
	switch {
	case errors.As(err, &bad):
		return http.StatusBadRequest
	case errors.Is(err, ErrBusy):
		s.metrics.rejected.Add(1)
		return http.StatusTooManyRequests
	case errors.Is(err, ErrShuttingDown):
		return http.StatusServiceUnavailable
	case errors.Is(err, ipcp.ErrCanceled),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled):
		s.metrics.timeouts.Add(1)
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// BusyRetryAfter is the wait a shed request is asked for: the
// Retry-After of a 429 answer. A batch item a worker sheds answers 429
// on its line, where no header fits; a fleet edge waits this long
// before it re-sends the item.
const BusyRetryAfter = time.Second

func (s *Server) failErr(w http.ResponseWriter, err error) {
	code := s.errStatus(err)
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(int(BusyRetryAfter/time.Second)))
	}
	Fail(w, code, err)
}
