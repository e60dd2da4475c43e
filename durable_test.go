package ipcp_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ipcp"
)

// These tests pin the crash-durability contract of a cache directory:
// an acknowledged put is on disk, so a SIGKILL loses none of them; a
// journal segment an older release left behind is ignored; and a
// failed write reaches the caller's report.

// openCache opens the cache directory dir the way every front end does.
func openCache(t testing.TB, dir string) *ipcp.SummaryCache {
	t.Helper()
	cache, _, err := ipcp.NewDurableCache(ipcp.DurableCacheOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return cache
}

// crashRecord returns the i-th record the SIGKILL child puts: a few
// kilobytes of payload under its content address.
func crashRecord(i int) (key string, payload []byte) {
	payload = bytes.Repeat([]byte(fmt.Sprintf("record %d;", i)), 300)
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:]), payload
}

// putUntilKilled is the SIGKILL child: it opens the cache directory and
// puts records until it is killed, printing each key once its put has
// returned.
func putUntilKilled(dir string, sync bool) {
	cache, _, err := ipcp.NewDurableCache(ipcp.DurableCacheOptions{Dir: dir, SyncEveryAppend: sync})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	for i := 0; ; i++ {
		key, payload := crashRecord(i)
		if err := cache.PutBlob(key, payload); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Println(key)
	}
}

// TestDurableCacheSIGKILL runs this test binary again as a child that
// puts records into a cache directory, SIGKILLs it partway through,
// reopens the directory, and requires every key the child printed — a
// put that had returned — to be served byte-identical. It runs with
// SyncEveryAppend off and on.
func TestDurableCacheSIGKILL(t *testing.T) {
	if args := flag.Args(); len(args) == 3 && args[0] == "sigkill-child" {
		putUntilKilled(args[1], args[2] == "sync")
		return
	}
	const killAfter = 100
	for _, mode := range []string{"nosync", "sync"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			child := exec.Command(os.Args[0], "-test.run=^TestDurableCacheSIGKILL$", "sigkill-child", dir, mode)
			var stderr bytes.Buffer
			child.Stderr = &stderr
			out, err := child.StdoutPipe()
			if err != nil {
				t.Fatal(err)
			}
			if err := child.Start(); err != nil {
				t.Fatal(err)
			}
			var acked []string
			lines := bufio.NewScanner(out)
			for lines.Scan() {
				acked = append(acked, lines.Text())
				if len(acked) == killAfter {
					if err := child.Process.Kill(); err != nil {
						t.Fatal(err)
					}
				}
			}
			_ = child.Wait() // the child dies by SIGKILL, so Wait reports that
			if len(acked) < killAfter {
				t.Fatalf("child acknowledged %d puts before dying, want %d; stderr:\n%s", len(acked), killAfter, stderr.String())
			}

			cache := openCache(t, dir)
			for i, key := range acked {
				wantKey, want := crashRecord(i)
				if key != wantKey {
					t.Fatalf("line %d of the child's output is %q, want key %s", i, key, wantKey)
				}
				got, ok, err := cache.GetBlob(key)
				if err != nil || !ok {
					t.Fatalf("acknowledged put %d of %d lost across SIGKILL (err %v)", i, len(acked), err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("acknowledged put %d served different bytes", i)
				}
			}
			t.Logf("%d acknowledged puts survived", len(acked))
		})
	}
}

// TestDurableCacheLeftoverJournal pins the upgrade rule: a cache
// directory holding a journal segment an older release wrote opens,
// analyzes and re-runs fully warm. The segment (sort.f's records under
// this configuration) is never replayed, and neither the runs nor a
// CacheGC sweep change its bytes.
func TestDurableCacheLeftoverJournal(t *testing.T) {
	seg, err := os.ReadFile("testdata/journal/wal-0000000000000001.wal")
	if err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile("testdata/sort.f")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	segPath := filepath.Join(dir, "wal-0000000000000001.wal")
	if err := os.WriteFile(segPath, seg, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := ipcp.Config{Jump: ipcp.PassThrough, ReturnJumpFunctions: true, MOD: true}
	snapPath := filepath.Join(dir, "snapshot-sort.snap")
	prog := ipcp.MustLoad(string(src))
	for run := 0; run < 2; run++ {
		cache := openCache(t, dir)
		prev, err := ipcp.LoadSnapshot(snapPath, cache)
		if (err == nil) != (run == 1) {
			t.Fatalf("run %d: LoadSnapshot error %v", run, err)
		}
		rep, snap := prog.AnalyzeIncremental(cfg, prev, cache)
		if err := snap.Save(snapPath); err != nil {
			t.Fatal(err)
		}
		st := *rep.Incremental
		if run == 0 && st.CacheHits != 0 {
			t.Fatalf("first run hit %d records: the segment was replayed", st.CacheHits)
		}
		if run == 1 && (st.Reanalyzed != 0 || st.HitRate() != 1) {
			t.Fatalf("re-run not fully warm: %+v", st)
		}
		scratch := prog.Analyze(cfg)
		normalizeIncrementalReports(scratch, rep)
		if !reflect.DeepEqual(scratch, rep) {
			t.Fatalf("run %d diverges from scratch", run)
		}
	}
	if _, err := ipcp.CacheGC(dir, 0); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(segPath); err != nil || !bytes.Equal(got, seg) {
		t.Fatalf("leftover segment changed (err %v)", err)
	}
}

// TestDurableCacheFailingTier stacks a remote tier that refuses every
// put behind the cache directory: the analysis still equals scratch,
// its Report carries the first failure, and the disk tier still holds
// every record, so a re-run without the remote is fully warm.
func TestDurableCacheFailingTier(t *testing.T) {
	refusing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPut {
			http.Error(w, "no space left", http.StatusInternalServerError)
			return
		}
		http.NotFound(w, r)
	}))
	defer refusing.Close()
	src, err := os.ReadFile("testdata/sort.f")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cache, _, err := ipcp.NewDurableCache(ipcp.DurableCacheOptions{Dir: dir, RemoteURL: refusing.URL})
	if err != nil {
		t.Fatal(err)
	}
	cfg := ipcp.Config{Jump: ipcp.PassThrough, ReturnJumpFunctions: true, MOD: true}
	prog := ipcp.MustLoad(string(src))
	rep, _ := prog.AnalyzeIncremental(cfg, nil, cache)
	if err := rep.Incremental.StoreErr; err == nil || !strings.Contains(err.Error(), "500") {
		t.Fatalf("report carries %v, want the refused put's error; cache %+v", err, cache.Stats())
	}
	scratch := prog.Analyze(cfg)
	normalizeIncrementalReports(scratch, rep)
	if !reflect.DeepEqual(scratch, rep) {
		t.Fatal("report with a failing tier diverges from scratch")
	}

	again, _ := prog.AnalyzeIncremental(cfg, nil, openCache(t, dir))
	if st := again.Incremental; st.HitRate() != 1 || st.StoreErr != nil {
		t.Fatalf("disk tier lost the records the remote refused: %+v", st)
	}
}
