package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"ipcp/internal/server"
	"ipcp/internal/server/client"
)

// This file is the dispatch path: pick the rendezvous owner of the
// request's routing key among the healthy shards, forward the request
// bytes through the worker's client (which retries once on 429 honoring
// Retry-After), and on a transport failure — the crash window before
// the supervisor notices the exit — fail over once to the runner-up
// shard. The edge reads no more of a request than its routing key, and
// relays the worker's answer as the worker wrote it.

// errNoWorkers reports an empty healthy set (503 at the edge).
var errNoWorkers = errors.New("fleet: no ready workers")

// route picks the owner of key among the ready shards, excluding one
// (a shard that just failed a dispatch; -1 excludes none).
func (f *Fleet) route(key string, exclude int) (shard int, addr string, ok bool) {
	alive := f.sup.healthy()
	if exclude >= 0 {
		kept := alive[:0]
		for _, s := range alive {
			if s != exclude {
				kept = append(kept, s)
			}
		}
		alive = kept
	}
	shard = owner(key, alive)
	if shard < 0 {
		return -1, "", false
	}
	addr, ok = f.sup.addr(shard)
	if !ok {
		// The shard dropped between healthy() and addr(); treat as no
		// owner rather than racing further.
		return -1, "", false
	}
	return shard, addr, true
}

// isTransport reports whether a dispatch error is a transport-level
// failure (connection refused/reset — the worker vanished) rather than
// an HTTP answer or the caller's own context expiring.
func isTransport(err error) bool {
	var se *client.StatusError
	if errors.As(err, &se) {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return true
}

// dispatch sends one request to the owner of key, or to the runner-up
// when the owner fails at the transport level. It returns the shard
// that answered and its 2xx response, whose body the caller reads and
// closes.
func (f *Fleet) dispatch(ctx context.Context, key, endpoint, method, path string, body []byte) (int, *http.Response, error) {
	shard, addr, ok := f.route(key, -1)
	if !ok {
		f.metrics.noWorkers.Add(1)
		return -1, nil, errNoWorkers
	}
	f.metrics.routed(shard)
	res, err := f.client(addr).Do(ctx, method, path, body)
	f.metrics.request(shard, endpoint, statusOf(res, err))
	if err == nil || !isTransport(err) {
		return shard, res, err
	}

	// The owner dropped mid-request. Its in-flight work is lost (the
	// caller sees the error below if no runner-up exists), but new
	// work re-routes immediately instead of waiting for the
	// supervisor's crash detection.
	f.metrics.reroutes.Add(1)
	shard2, addr2, ok := f.route(key, shard)
	if !ok {
		return shard, nil, err
	}
	f.metrics.routed(shard2)
	res, err = f.client(addr2).Do(ctx, method, path, body)
	f.metrics.request(shard2, endpoint, statusOf(res, err))
	return shard2, res, err
}

// statusOf maps a dispatch outcome to its status: the worker's own
// answer, 503 for an empty fleet, 504 when the caller's context ended,
// and 502 for a transport failure.
func statusOf(res *http.Response, err error) int {
	var se *client.StatusError
	switch {
	case err == nil:
		return res.StatusCode
	case errors.As(err, &se):
		return se.Code
	case errors.Is(err, errNoWorkers):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	default:
		return http.StatusBadGateway
	}
}

// failure maps a failed dispatch to the edge's answer: a worker's HTTP
// answer keeps its status and message, anything else gets statusOf's
// code.
func failure(err error) (int, error) {
	code := statusOf(nil, err)
	var se *client.StatusError
	switch {
	case errors.As(err, &se):
		err = errors.New(se.Message)
	case code == http.StatusBadGateway:
		err = fmt.Errorf("fleet: worker unavailable: %w", err)
	}
	return code, err
}

// failDispatch writes the edge response for a failed dispatch, with the
// worker's Retry-After on a 429.
func (f *Fleet) failDispatch(w http.ResponseWriter, err error) {
	var se *client.StatusError
	if errors.As(err, &se) && se.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int(se.RetryAfter/time.Second)))
	}
	code, err := failure(err)
	server.Fail(w, code, err)
}

// lineage is all the edge reads of an analyze or transform body: the
// fields that pick its shard.
type lineage struct {
	Program string               `json:"program"`
	Config  server.ConfigRequest `json:"config"`
}

// forward serves POST /v1/<endpoint> for analyze and transform: route
// by the body's lineage and relay the body unchanged.
func (f *Fleet) forward(endpoint string) http.HandlerFunc {
	path := "/v1/" + endpoint
	return func(w http.ResponseWriter, r *http.Request) {
		var req lineage
		body, ok := server.Decode(w, r, &req)
		if !ok {
			return
		}
		cfg, err := req.Config.Config()
		if err != nil {
			server.Fail(w, http.StatusBadRequest, err)
			return
		}
		f.relay(w, r, analyzeKey(req.Program, cfg), endpoint, path, body)
	}
}

// handleMatrix relays GET /v1/matrix, query string and all, so every
// worker-side knob keeps working without the edge re-modeling it.
func (f *Fleet) handleMatrix(w http.ResponseWriter, r *http.Request) {
	f.relay(w, r, matrixKey(r.URL.Query().Get("program")), "matrix", "/v1/matrix?"+r.URL.RawQuery, nil)
}

// relay dispatches one request and copies the answering worker's
// status, Content-Type and body to w, tagged with its shard.
func (f *Fleet) relay(w http.ResponseWriter, r *http.Request, key, endpoint, path string, body []byte) {
	shard, res, err := f.dispatch(r.Context(), key, endpoint, r.Method, path, body)
	if err != nil {
		f.failDispatch(w, err)
		return
	}
	defer res.Body.Close()
	w.Header().Set("X-Fleet-Shard", strconv.Itoa(shard))
	w.Header().Set("Content-Type", res.Header.Get("Content-Type"))
	w.WriteHeader(res.StatusCode)
	if _, err := io.Copy(w, res.Body); err != nil {
		f.logf("fleet: relay %s from shard %d: %v", endpoint, shard, err)
	}
}
