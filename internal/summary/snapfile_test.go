package summary

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// editN returns a many-procedure snapshot with one procedure's source
// hash bumped to generation n: the snapshot of the n-th one-procedure
// edit of one program.
func editN(n int) *Snapshot {
	s := sampleSnapshot()
	for i := 0; i < 24; i++ {
		name := "PROC" + string(rune('A'+i))
		s.Procs[name] = ProcStamp{
			SourceHash: "hash-" + name,
			Key:        KeyOf("proc", name),
		}
	}
	st := s.Procs["SOLVE"]
	st.SourceHash = string(rune('a'+n)) + "-gen"
	s.Procs["SOLVE"] = st
	return s
}

func TestSnapshotFileSaveLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snapshot-x.snap")
	for n := 0; n < 3; n++ {
		if err := SaveSnapshotFile(path, editN(n)); err != nil {
			t.Fatalf("save %d: %v", n, err)
		}
		got, err := LoadSnapshotFile(path)
		if err != nil {
			t.Fatalf("load %d: %v", n, err)
		}
		if !reflect.DeepEqual(got, editN(n)) {
			t.Fatalf("load %d: got %+v, want the snapshot just saved", n, got)
		}
	}
	// The file is the last snapshot's encoding, and no temporary file
	// is left beside it.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, EncodeSnapshot(editN(2))) {
		t.Fatal("snapshot file does not hold exactly the last snapshot's encoding")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d files after three saves, want 1", len(entries))
	}
}

func TestSnapshotFileUnchangedSaveWritesNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snapshot-x.snap")
	if err := SaveSnapshotFile(path, editN(0)); err != nil {
		t.Fatal(err)
	}
	// Backdate the file, so a rewrite shows in its mtime whatever the
	// file system's timestamp granularity.
	old := time.Now().Add(-time.Hour).Truncate(time.Second)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveSnapshotFile(path, editN(0)); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) || !info.ModTime().Equal(old) {
		t.Fatalf("unchanged save rewrote the file: mtime %v, want %v", info.ModTime(), old)
	}
}

// TestSnapshotFileCorruptIsReplaced covers the files a snapshot path
// may hold that are not one snapshot encoding: a torn write, garbage,
// and a delta chain in the layout older releases wrote (magic "IPCH",
// version 1, then length-prefixed frames). Each loads as ErrCorrupt,
// pins nothing in GCDir, and is replaced by the next save.
func TestSnapshotFileCorruptIsReplaced(t *testing.T) {
	snap := editN(0)
	enc := EncodeSnapshot(snap)
	chain := []byte("IPCH")
	chain = binary.BigEndian.AppendUint16(chain, 1)
	chain = binary.BigEndian.AppendUint32(chain, uint32(len(enc)))
	chain = append(chain, enc...)
	cases := []struct {
		name string
		data []byte
	}{
		{"truncated", enc[:len(enc)/2]},
		{"garbage", []byte("garbage!")},
		{"chain", chain},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			store, err := NewDiskStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			k := snap.Procs["SOLVE"].Key
			if err := store.Put(k, []byte("payload")); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, "snapshot-x.snap")
			if err := os.WriteFile(path, c.data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := LoadSnapshotFile(path); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("load: err = %v, want ErrCorrupt", err)
			}
			st, err := GCDir(dir, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			if st.Snapshots != 0 || st.Unreferenced != 1 {
				t.Fatalf("undecodable snapshot pinned keys: %+v", st)
			}
			if err := SaveSnapshotFile(path, snap); err != nil {
				t.Fatalf("save over the file: %v", err)
			}
			got, err := LoadSnapshotFile(path)
			if err != nil || !reflect.DeepEqual(got, snap) {
				t.Fatalf("load after save: %+v, %v", got, err)
			}
		})
	}
}

// TestLoadSnapshotFileLegacy checks that a bare snapshot encoding
// written with os.WriteFile, as Snapshot.Save wrote it before saves
// became atomic, loads as it is.
func TestLoadSnapshotFileLegacy(t *testing.T) {
	legacy := filepath.Join(t.TempDir(), "snapshot-legacy.snap")
	if err := os.WriteFile(legacy, EncodeSnapshot(editN(0)), 0o644); err != nil {
		t.Fatal(err)
	}
	snap, err := LoadSnapshotFile(legacy)
	if err != nil {
		t.Fatalf("legacy load: %v", err)
	}
	if !reflect.DeepEqual(snap, editN(0)) {
		t.Fatal("legacy snapshot did not round-trip")
	}
}
