package server_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ipcp/internal/server"
	"ipcp/internal/suite"
)

// These tests prove the daemon half of the durability contract: a
// summary the daemon acknowledged is on disk, so the next boot on the
// same directory serves it even when the last process never shut
// down; a journal segment an older release left behind is neither
// replayed nor deleted; and a summary write that fails is logged.

// TestServerBootServesStoredBlobs puts blobs into one server and,
// without shutting it down, boots a second on the same directory: it
// serves every acknowledged blob byte-identical, and /metrics carries
// no journal counters.
func TestServerBootServesStoredBlobs(t *testing.T) {
	dir := t.TempDir()
	_, base := startBlobServer(t, server.Config{CacheDir: dir})
	var keys []string
	var payloads [][]byte
	for i := 0; i < 3; i++ {
		payload := []byte(strings.Repeat("summary", i+1))
		sum := sha256.Sum256(payload)
		key := hex.EncodeToString(sum[:])
		if resp := putBlob(t, base, key, payload, ""); resp.StatusCode != http.StatusNoContent {
			t.Fatalf("put %d: status %d", i, resp.StatusCode)
		}
		keys = append(keys, key)
		payloads = append(payloads, payload)
	}

	s2, err := server.New(server.Config{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown(context.Background())
	mux := s2.Handler()
	for i, key := range keys {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/blob/"+key, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("blob %d lost across the restart: status %d", i, rec.Code)
		}
		if !bytes.Equal(rec.Body.Bytes(), payloads[i]) {
			t.Fatalf("blob %d: served payload diverges", i)
		}
	}
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if strings.Contains(rec.Body.String(), "ipcpd_wal_") {
		t.Fatalf("metrics still expose journal counters:\n%s", grepLines(rec.Body.String(), "wal"))
	}
}

// TestServerLeavesLeftoverJournalAlone boots a server on a directory
// holding a journal segment an older release wrote: the segment's
// records are not replayed, and neither a GC sweep nor a shutdown
// touches its bytes.
func TestServerLeavesLeftoverJournalAlone(t *testing.T) {
	seg, err := os.ReadFile("../../testdata/journal/wal-0000000000000001.wal")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	segPath := filepath.Join(dir, "wal-0000000000000001.wal")
	if err := os.WriteFile(segPath, seg, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := server.New(server.Config{CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}

	// The first record's key follows the 14-byte segment header and the
	// record's 4-byte length.
	key := hex.EncodeToString(seg[18:50])
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/blob/"+key, nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("journaled blob served: status %d", rec.Code)
	}
	if _, err := s.GC(); err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(segPath)
	if err != nil || !bytes.Equal(got, seg) {
		t.Fatalf("leftover segment changed (err %v)", err)
	}
}

// TestServerLogsFailedSummaryWrite stacks a remote tier that refuses
// every put behind the server's cache directory: the analysis still
// answers, and the daemon logs the first failed write.
func TestServerLogsFailedSummaryWrite(t *testing.T) {
	refusing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPut {
			http.Error(w, "no space left", http.StatusInternalServerError)
			return
		}
		http.NotFound(w, r)
	}))
	defer refusing.Close()
	var logs bytes.Buffer
	_, c := startServer(t, server.Config{
		Workers:     1,
		CacheDir:    t.TempDir(),
		RemoteCache: refusing.URL,
		Log:         log.New(&logs, "", 0),
	})
	if _, err := c.Analyze(context.Background(), server.AnalyzeRequest{
		Source: suite.Generate("ocean", 1).Source, Program: "refused", Config: server.ConfigOf(e2eConfig),
	}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(logs.String(), "cache write: ") || !strings.Contains(logs.String(), "500") {
		t.Fatalf("daemon did not log the failed write; log:\n%s", logs.String())
	}
}

// grepLines filters s to the lines containing substr, for focused
// failure messages.
func grepLines(s, substr string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
