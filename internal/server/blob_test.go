package server_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"ipcp"
	"ipcp/internal/server"
	"ipcp/internal/suite"
)

// startBlobServer is startServer for tests that need the raw base URL
// (the blob protocol is binary, not part of the typed client).
func startBlobServer(t *testing.T, cfg server.Config) (*server.Server, string) {
	t.Helper()
	s, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, ts.URL
}

func blobURL(base, key string) string { return base + "/v1/blob/" + key }

func putBlob(t *testing.T, base, key string, data []byte, sum string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, blobURL(base, key), bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if sum != "" {
		req.Header.Set("X-Blob-Sum", sum)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// TestServerBlobEndpoint pins the wire contract of GET/PUT /v1/blob/:
// round trip, miss, malformed keys, checksum rejection, and the
// checksum header on the way back out.
func TestServerBlobEndpoint(t *testing.T) {
	_, base := startBlobServer(t, server.Config{Workers: 1})
	key := strings.Repeat("ab", 32)
	data := []byte("blob payload")
	sum := sha256.Sum256(data)
	hexSum := hex.EncodeToString(sum[:])

	if resp, err := http.Get(blobURL(base, key)); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET before PUT: status %d, want 404", resp.StatusCode)
	}

	if resp := putBlob(t, base, key, data, hexSum); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT: status %d, want 204", resp.StatusCode)
	}
	resp, err := http.Get(blobURL(base, key))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, data) {
		t.Fatalf("GET after PUT: status %d body %q", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Blob-Sum"); !strings.EqualFold(got, hexSum) {
		t.Fatalf("GET checksum header = %q, want %q", got, hexSum)
	}

	// A body that does not match its declared checksum must be refused,
	// and must not clobber the stored blob.
	if resp := putBlob(t, base, key, []byte("tampered"), hexSum); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("PUT with wrong checksum: status %d, want 400", resp.StatusCode)
	}
	if resp, err := http.Get(blobURL(base, key)); err != nil {
		t.Fatal(err)
	} else {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !bytes.Equal(body, data) {
			t.Fatalf("stored blob changed after rejected PUT: %q", body)
		}
	}

	// Malformed keys: wrong length, non-hex.
	for _, bad := range []string{"abc", strings.Repeat("zz", 32)} {
		if resp, err := http.Get(blobURL(base, bad)); err != nil {
			t.Fatal(err)
		} else if resp.Body.Close(); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET with key %q: status %d, want 400", bad, resp.StatusCode)
		}
		if resp := putBlob(t, base, bad, data, ""); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("PUT with key %q: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestServerRemoteCacheSharing is the fleet scenario end to end: two
// "machines" (tiered caches with empty local tiers) share one ipcpd
// blob endpoint. The first analyzes and writes back; the second, on
// the same source and configuration, fetches everything through the
// remote tier — full reuse on a machine that has computed nothing.
// Every report, including one under a different flavor, must equal a
// local scratch Analyze.
func TestServerRemoteCacheSharing(t *testing.T) {
	_, base := startBlobServer(t, server.Config{Workers: 1})
	src := suite.Generate("ocean", 2).Source
	cfg := ipcp.Config{Jump: ipcp.PassThrough, ReturnJumpFunctions: true, MOD: true}

	machine1 := ipcp.NewTieredCache(ipcp.NewMemoryCache(), ipcp.NewRemoteCache(base))
	prog := ipcp.MustLoad(src)
	rep1, _ := prog.AnalyzeIncremental(cfg, nil, machine1) // every put reached the server before it returned

	machine2 := ipcp.NewTieredCache(ipcp.NewMemoryCache(), ipcp.NewRemoteCache(base))
	rep2, _ := prog.AnalyzeIncremental(cfg, nil, machine2)
	if st := rep2.Incremental; st.CacheHits != st.TotalProcedures || st.Reanalyzed != 0 {
		t.Fatalf("machine 2 should reuse everything via the remote tier, got %+v", st)
	}

	// A different flavor on machine 2, which no machine has run before.
	poly := cfg
	poly.Jump = ipcp.Polynomial
	rep3, _ := prog.AnalyzeIncremental(poly, nil, machine2)

	scratch := prog.Analyze(cfg)
	for i, rep := range []*ipcp.Report{rep1, rep2} {
		rep := rep
		normalize(scratch, rep)
		if !reflect.DeepEqual(scratch, rep) {
			t.Fatalf("machine %d report diverges from local scratch Analyze", i+1)
		}
	}
	scratchPoly := prog.Analyze(poly)
	normalize(scratchPoly, rep3)
	if !reflect.DeepEqual(scratchPoly, rep3) {
		t.Fatal("cross-flavor remote-cache report diverges from local scratch Analyze")
	}
}

// TestServerBlobMetrics pins that blob traffic shows up as its own
// endpoint in /metrics and that the new cache counters are exposed.
func TestServerBlobMetrics(t *testing.T) {
	_, base := startBlobServer(t, server.Config{Workers: 1})
	key := strings.Repeat("cd", 32)
	putBlob(t, base, key, []byte("v"), "")
	if resp, err := http.Get(blobURL(base, key)); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`ipcpd_requests_total{endpoint="blob",code="200"} 1`,
		`ipcpd_requests_total{endpoint="blob",code="204"} 1`,
		"ipcpd_summary_cache_put_bytes_total",
		"ipcpd_summary_cache_errors_total",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
