package summary

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// gcSnapshot writes a snapshot file into dir referencing the given
// keys, mimicking what cmd/ipcp -cache-dir leaves behind.
func gcSnapshot(t *testing.T, dir, name string, keys ...Key) {
	t.Helper()
	s := &Snapshot{ConfigKey: "cfg", GlobalsHash: "g", Procs: make(map[string]ProcStamp)}
	for i, k := range keys {
		s.Procs[string(rune('a'+i))] = ProcStamp{SourceHash: "h", Key: k}
	}
	path := filepath.Join(dir, "snapshot-"+name+".snap")
	if err := os.WriteFile(path, EncodeSnapshot(s), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestGCDirDeletesUnreferenced(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	kLive := KeyOf("live")
	kLive2 := KeyOf("live2")
	kDead := KeyOf("dead")
	kMem := KeyOf("in-memory")
	for _, k := range []Key{kLive, kLive2, kDead, kMem} {
		if err := store.Put(k, []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	gcSnapshot(t, dir, "one", kLive)
	gcSnapshot(t, dir, "two", kLive2)

	st, err := GCDir(dir, []Key{kMem}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Scanned != 4 || st.Unreferenced != 1 || st.OverBudget != 0 || st.Kept != 3 {
		t.Fatalf("unexpected stats: %+v", st)
	}
	if st.Snapshots != 2 || st.LiveKeys != 3 {
		t.Fatalf("live-set stats wrong: %+v", st)
	}
	if _, ok := store.Get(kDead); ok {
		t.Error("unreferenced entry survived GC")
	}
	for _, k := range []Key{kLive, kLive2, kMem} {
		if _, ok := store.Get(k); !ok {
			t.Errorf("live entry %s was collected", k)
		}
	}
	// Snapshot files themselves are never collected.
	snaps, _ := filepath.Glob(filepath.Join(dir, "snapshot-*.snap"))
	if len(snaps) != 2 {
		t.Errorf("GC touched snapshot files: %d left", len(snaps))
	}
}

func TestGCDirBudgetEvictsColdestFirst(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 100)
	var keys []Key
	base := time.Now().Add(-time.Hour)
	for i := 0; i < 4; i++ {
		k := KeyOf("entry", string(rune('0'+i)))
		keys = append(keys, k)
		if err := store.Put(k, payload); err != nil {
			t.Fatal(err)
		}
		// Distinct mtimes, oldest first, so eviction order is fixed.
		mt := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(store.path(k), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	gcSnapshot(t, dir, "all", keys...)

	// Budget fits two entries: the two oldest must go, newest stay.
	st, err := GCDir(dir, nil, 250)
	if err != nil {
		t.Fatal(err)
	}
	if st.Unreferenced != 0 || st.OverBudget != 2 || st.Kept != 2 || st.KeptBytes != 200 {
		t.Fatalf("unexpected stats: %+v", st)
	}
	for i, k := range keys {
		_, ok := store.Get(k)
		if wantAlive := i >= 2; ok != wantAlive {
			t.Errorf("entry %d alive=%v, want %v", i, ok, wantAlive)
		}
	}
}

func TestGCDirSkipsCorruptSnapshots(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := KeyOf("entry")
	if err := store.Put(k, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "snapshot-bad.snap"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := GCDir(dir, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The corrupt snapshot pins nothing, so the entry is unreferenced.
	if st.Snapshots != 0 || st.Unreferenced != 1 {
		t.Fatalf("unexpected stats: %+v", st)
	}
}

// TestGCDirIgnoresForeignFiles pins the ownership rule: GC deletes
// only files it can prove are unreferenced store blobs. Journal
// segments an older release left behind, notes, badly named .ipcs
// files — anything else in the directory — must survive a sweep
// untouched.
func TestGCDirIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	kDead := KeyOf("dead")
	if err := store.Put(kDead, []byte("x")); err != nil {
		t.Fatal(err)
	}

	foreign := []string{
		"wal-0000000000000001.wal", // an older release's journal segment
		"notes.txt",                // a user's file
		"README",                   // no extension at all
		"not-hex-at-all.ipcs",      // .ipcs but not a key of ours
		"abcd.ipcs",                // valid hex, wrong length
		".snap-tmp123",             // an in-flight snapshot save's temp
	}
	for _, name := range foreign {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("foreign"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	st, err := GCDir(dir, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Only the one owned, unreferenced blob goes.
	if st.Scanned != 1 || st.Unreferenced != 1 {
		t.Fatalf("unexpected stats: %+v", st)
	}
	for _, name := range foreign {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("GC deleted foreign file %s: %v", name, err)
		}
	}
	if _, ok := store.Get(kDead); ok {
		t.Error("unreferenced entry survived GC")
	}
}

// TestGCDirDeletesOrphanedTempFiles covers a write killed between its
// temp file and its rename: a put-<digits> or .snap-<digits> file older
// than the grace period is deleted and counted, and a fresh one, which
// may belong to a write still in flight, is kept.
func TestGCDirDeletesOrphanedTempFiles(t *testing.T) {
	dir := t.TempDir()
	stale := []string{"put-3956999316", ".snap-1234567"}
	fresh := []string{"put-42", ".snap-77"}
	old := time.Now().Add(-tempGrace - time.Minute)
	for _, name := range append(stale, fresh...) {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
		if slices.Contains(stale, name) {
			if err := os.Chtimes(path, old, old); err != nil {
				t.Fatal(err)
			}
		}
	}
	st, err := GCDir(dir, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Orphans != len(stale) || st.Scanned != 0 {
		t.Errorf("stats %+v, want %d orphans and nothing scanned", st, len(stale))
	}
	for _, name := range stale {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("stale temp file %s survived GC: %v", name, err)
		}
	}
	for _, name := range fresh {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("GC deleted fresh temp file %s: %v", name, err)
		}
	}
}

// TestGCDirPinsLastSavedSnapshot checks that a snapshot file saved
// twice pins only the second save's keys: each save replaces the file.
func TestGCDirPinsLastSavedSnapshot(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	kOld, kNew, kDead := KeyOf("old"), KeyOf("new"), KeyOf("dead")
	for _, k := range []Key{kOld, kNew, kDead} {
		if err := store.Put(k, []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, "snapshot-x.snap")
	first := &Snapshot{ConfigKey: "cfg", GlobalsHash: "g", Procs: map[string]ProcStamp{
		"a": {SourceHash: "h1", Key: kOld},
	}}
	if err := SaveSnapshotFile(path, first); err != nil {
		t.Fatal(err)
	}
	second := &Snapshot{ConfigKey: "cfg", GlobalsHash: "g", Procs: map[string]ProcStamp{
		"a": {SourceHash: "h2", Key: kNew},
	}}
	if err := SaveSnapshotFile(path, second); err != nil {
		t.Fatal(err)
	}

	st, err := GCDir(dir, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Snapshots != 1 {
		t.Fatalf("saved snapshot not consulted: %+v", st)
	}
	// Only the second save's key is live: kOld and kDead are not.
	if _, ok := store.Get(kNew); !ok {
		t.Error("key of the last saved snapshot was collected")
	}
	for _, k := range []Key{kOld, kDead} {
		if _, ok := store.Get(k); ok {
			t.Errorf("unreferenced key %s survived GC", k)
		}
	}
}
