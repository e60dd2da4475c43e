package fleet_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"ipcp/internal/server"
	"ipcp/internal/suite"
)

// answer is one HTTP answer, read whole.
type answer struct {
	status int
	header http.Header
	body   []byte
}

// exchange sends one request, with body (when non-nil) as JSON, and
// reads the whole answer.
func exchange(t *testing.T, method, url string, body any) answer {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	raw, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return answer{res.StatusCode, res.Header, raw}
}

// sameAnswer sends one request to the fleet and to the single server
// and requires the same status, Content-Type and body decoded as a T,
// returning the fleet's answer and body. Matrix reports are normalized
// first, so served and routed runs compare equal.
func sameAnswer[T any](t *testing.T, fleetURL, singleURL, method, path string, body any, status int) (answer, T) {
	t.Helper()
	got := exchange(t, method, fleetURL+path, body)
	want := exchange(t, method, singleURL+path, body)
	if got.status != status || want.status != status {
		t.Fatalf("%s %s: fleet status %d, single status %d, want %d\nfleet: %s\nsingle: %s",
			method, path, got.status, want.status, status, got.body, want.body)
	}
	if g, w := got.header.Get("Content-Type"), want.header.Get("Content-Type"); g != w {
		t.Errorf("%s %s: fleet Content-Type %q, single %q", method, path, g, w)
	}
	var g, w T
	if err := json.Unmarshal(got.body, &g); err != nil {
		t.Fatalf("%s %s: fleet body: %v", method, path, err)
	}
	if err := json.Unmarshal(want.body, &w); err != nil {
		t.Fatalf("%s %s: single body: %v", method, path, err)
	}
	if m, ok := any(&g).(*server.MatrixResponse); ok {
		normalize(m.Reports...)
		normalize(any(&w).(*server.MatrixResponse).Reports...)
	}
	if !reflect.DeepEqual(g, w) {
		t.Errorf("%s %s: fleet answer diverges from the single server's\nfleet:  %+v\nsingle: %+v", method, path, g, w)
	}
	return got, g
}

// TestFleetEdgeContract pins what the edge passes through from the
// worker it routes to on the endpoints besides batch: a 2-shard fleet
// answers transform and matrix exactly as a single server does, tagged
// with the answering shard; a worker's 400 and 404 reach the caller
// with the worker's message; and a worker's 429 reaches the caller
// with its Retry-After once the edge has retried it once.
func TestFleetEdgeContract(t *testing.T) {
	_, _, _, fleetURL := startFleet(t, 2, server.Config{Workers: 2})
	singleURL := startSingleServer(t)
	wire := server.ConfigOf(e2eConfig)

	t.Run("transform", func(t *testing.T) {
		byShard := programsSpanningShards(t, 2)
		for shard := 0; shard < 2; shard++ {
			req := server.TransformRequest{Source: suite.Random(int64(shard), 6).Source, Program: byShard[shard][0], Config: wire}
			got, resp := sameAnswer[server.TransformResponse](t, fleetURL, singleURL, http.MethodPost, "/v1/transform", req, http.StatusOK)
			if h := got.header.Get("X-Fleet-Shard"); h != strconv.Itoa(shard) {
				t.Errorf("%s: X-Fleet-Shard %q, rendezvous owner is %d", req.Program, h, shard)
			}
			if resp.Source == "" {
				t.Errorf("%s: empty transformed source", req.Program)
			}
		}
	})

	t.Run("matrix", func(t *testing.T) {
		got, resp := sameAnswer[server.MatrixResponse](t, fleetURL, singleURL, http.MethodGet, "/v1/matrix?program=trfd&scale=1", nil, http.StatusOK)
		if h := got.header.Get("X-Fleet-Shard"); h != "0" && h != "1" {
			t.Errorf("matrix: X-Fleet-Shard %q, want a shard of 2", h)
		}
		if resp.Program != "trfd" || resp.Scale != 1 || len(resp.Reports) == 0 {
			t.Errorf("matrix answered %s at scale %d with %d reports", resp.Program, resp.Scale, len(resp.Reports))
		}
	})

	t.Run("unparsable source", func(t *testing.T) {
		for _, path := range []string{"/v1/analyze", "/v1/transform"} {
			req := server.AnalyzeRequest{Source: "not fortran", Program: "bad", Config: wire}
			_, e := sameAnswer[server.ErrorResponse](t, fleetURL, singleURL, http.MethodPost, path, req, http.StatusBadRequest)
			if e.Error == "" {
				t.Errorf("%s: 400 without the worker's message", path)
			}
		}
	})

	t.Run("unknown matrix program", func(t *testing.T) {
		_, e := sameAnswer[server.ErrorResponse](t, fleetURL, singleURL, http.MethodGet, "/v1/matrix?program=nonesuch&scale=1", nil, http.StatusNotFound)
		if e.Error == "" {
			t.Error("404 without the worker's message")
		}
	})

	t.Run("busy worker", func(t *testing.T) {
		const busy = 1
		var hits atomic.Int32
		fl := startFleetWithBrokenShard(t, 2, busy, func(w http.ResponseWriter, r *http.Request) {
			hits.Add(1)
			w.Header().Set("Retry-After", "1")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(server.ErrorResponse{Error: "stub shard busy"})
		}, server.Config{Workers: 1})
		ts := httptest.NewServer(fl.Handler())
		t.Cleanup(ts.Close)

		name := programsSpanningShards(t, 2)[busy][0]
		got := exchange(t, http.MethodPost, ts.URL+"/v1/analyze",
			server.AnalyzeRequest{Source: suite.Random(1, 6).Source, Program: name, Config: wire})
		if got.status != http.StatusTooManyRequests {
			t.Fatalf("status %d, want 429: %s", got.status, got.body)
		}
		if h := got.header.Get("Retry-After"); h != "1" {
			t.Errorf("Retry-After %q, want the worker's %q", h, "1")
		}
		var e server.ErrorResponse
		if err := json.Unmarshal(got.body, &e); err != nil || e.Error != "stub shard busy" {
			t.Errorf("body %s does not carry the worker's message", got.body)
		}
		if n := hits.Load(); n != 2 {
			t.Errorf("the busy shard saw %d requests, want 2: the call and the edge's one retry", n)
		}
	})
}

// TestFleetBodyBound pins the edge to the server's body bound: a body
// one byte over server.MaxBodyBytes is refused with 400 at the edge,
// without a worker call.
func TestFleetBodyBound(t *testing.T) {
	_, _, _, base := startFleet(t, 2, server.Config{Workers: 1})
	// One worker call first, so the request counters have samples.
	if got := exchange(t, http.MethodPost, base+"/v1/analyze", server.AnalyzeRequest{Source: "not fortran"}); got.status != http.StatusBadRequest {
		t.Fatalf("unparsable source: status %d, want 400", got.status)
	}
	before := metricLines(t, base, "ipcpd_fleet_requests_total")
	if len(before) == 0 {
		t.Fatal("no ipcpd_fleet_requests_total samples after a worker call")
	}

	prefix, suffix := `{"source":"`, `"}`
	body := []byte(prefix + strings.Repeat(" ", server.MaxBodyBytes+1-len(prefix)-len(suffix)) + suffix)
	res, err := http.Post(base+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusBadRequest {
		t.Fatalf("a %d-byte body: status %d, want 400: %s", len(body), res.StatusCode, msg)
	}
	if after := metricLines(t, base, "ipcpd_fleet_requests_total"); !reflect.DeepEqual(after, before) {
		t.Errorf("an oversized body reached a worker: requests %q, then %q", before, after)
	}
}
