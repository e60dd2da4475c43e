package summary

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// This file implements cross-run garbage collection for disk store
// directories. A DiskStore only ever grows: every edit writes new
// content-addressed keys and the superseded ones are unreachable but
// never deleted. GCDir reclaims them by computing the live key set —
// the union of every snapshot file in the directory plus any
// caller-supplied snapshots (a daemon's in-memory ones) — deleting
// unreferenced .ipcs files, and then enforcing a byte budget over the
// survivors, coldest (oldest mtime) first. Snapshot files themselves
// are never collected. Neither is a write's temp file, until it is
// older than tempGrace: then the process that wrote it is gone.

// tempGrace is how old a DiskStore.Put or SaveSnapshotFile temp file
// (put-<digits>, .snap-<digits>) must be before GCDir deletes it. A
// write renames its temp file into place within moments, so a temp
// file an hour old was left by a process killed between the two.
const tempGrace = time.Hour

// GCStats reports one garbage-collection sweep.
type GCStats struct {
	// Snapshots counts the snapshot files consulted for live keys
	// (undecodable ones are skipped, not trusted); LiveKeys is the size
	// of the resulting live set, caller-supplied keys included.
	Snapshots int
	LiveKeys  int

	// Scanned counts the .ipcs files examined, totalling ScannedBytes.
	Scanned      int
	ScannedBytes int64

	// Unreferenced counts files deleted because no live snapshot
	// references their key; OverBudget counts live files deleted to
	// enforce the byte budget. DeletedBytes totals both.
	Unreferenced int
	OverBudget   int
	DeletedBytes int64

	// Kept counts the surviving files, totalling KeptBytes.
	Kept      int
	KeptBytes int64

	// Orphans counts the temp files of killed writes deleted, older
	// than tempGrace; their bytes are not in DeletedBytes.
	Orphans int
}

// String renders the sweep in one line.
func (s GCStats) String() string {
	return fmt.Sprintf("cache gc: %d/%d files deleted (%d unreferenced, %d over budget), %d bytes freed, %d kept (%d bytes), %d live keys from %d snapshots, %d orphaned temp files deleted",
		s.Unreferenced+s.OverBudget, s.Scanned, s.Unreferenced, s.OverBudget,
		s.DeletedBytes, s.Kept, s.KeptBytes, s.LiveKeys, s.Snapshots, s.Orphans)
}

// Keys returns the store keys the snapshot references, in unspecified
// order — the live set one run contributes to a GC sweep, one key per
// procedure.
func (s *Snapshot) Keys() []Key {
	keys := make([]Key, 0, len(s.Procs))
	for _, st := range s.Procs {
		//lint:ignore mapiter GCDir consumes Keys as an unordered pin set (membership only); the doc comment declares the order unspecified
		keys = append(keys, st.Key)
	}
	return keys
}

// GCDir sweeps a disk store directory: every *.ipcs file whose key no
// snapshot references is deleted, and if the referenced survivors
// still exceed budgetBytes (0 = unbounded), the coldest are deleted
// until they fit — a collected live entry is only a future cache miss,
// never an error. extraLive adds keys beyond the directory's snapshot
// files (e.g. snapshots held in memory by a resident server). Temp
// files of writes killed before their rename are deleted once older
// than tempGrace. The sweep is safe to run concurrently with store
// readers and writers: deletion of an in-use file only forces a
// recomputation.
func GCDir(dir string, extraLive []Key, budgetBytes int64) (GCStats, error) {
	var st GCStats
	orphanedBefore := time.Now().Add(-tempGrace)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return st, fmt.Errorf("summary: cache gc: %w", err)
	}

	live := make(map[Key]bool, len(extraLive))
	for _, k := range extraLive {
		live[k] = true
	}
	type blob struct {
		key  Key
		path string
		size int64
		mod  int64 // mtime in nanoseconds, the eviction clock
	}
	var blobs []blob
	for _, e := range entries {
		name := e.Name()
		path := filepath.Join(dir, name)
		switch {
		case strings.HasPrefix(name, "snapshot-") && strings.HasSuffix(name, ".snap"):
			snap, err := LoadSnapshotFile(path)
			if err != nil {
				// Corrupt snapshots pin nothing, nor do delta chains
				// from before snapshot files held one encoding.
				continue
			}
			st.Snapshots++
			for _, k := range snap.Keys() {
				live[k] = true
			}
		case strings.HasSuffix(name, ".ipcs"):
			raw, err := hex.DecodeString(strings.TrimSuffix(name, ".ipcs"))
			if err != nil || len(raw) != len(Key{}) {
				continue // not a store file of ours
			}
			var key Key
			copy(key[:], raw)
			info, err := e.Info()
			if err != nil {
				continue // raced with a concurrent delete
			}
			st.Scanned++
			st.ScannedBytes += info.Size()
			blobs = append(blobs, blob{key: key, path: path, size: info.Size(), mod: info.ModTime().UnixNano()})
		case isTempName(name, "put-") || isTempName(name, ".snap-"):
			info, err := e.Info()
			if err == nil && info.ModTime().Before(orphanedBefore) && os.Remove(path) == nil {
				st.Orphans++
			}
		default:
			// GC deletes only files it can prove it owns; anything with
			// an unknown extension is someone else's.
			continue
		}
	}
	st.LiveKeys = len(live)

	var survivors []blob
	var keptBytes int64
	for _, b := range blobs {
		if !live[b.key] {
			if os.Remove(b.path) == nil {
				st.Unreferenced++
				st.DeletedBytes += b.size
			}
			continue
		}
		survivors = append(survivors, b)
		keptBytes += b.size
	}

	// Budget enforcement: drop the coldest live entries until the rest
	// fit. Ties break on path so the sweep is deterministic.
	sort.Slice(survivors, func(i, j int) bool {
		if survivors[i].mod != survivors[j].mod {
			return survivors[i].mod < survivors[j].mod
		}
		return survivors[i].path < survivors[j].path
	})
	i := 0
	for ; budgetBytes > 0 && keptBytes > budgetBytes && i < len(survivors); i++ {
		b := survivors[i]
		if os.Remove(b.path) == nil {
			st.OverBudget++
			st.DeletedBytes += b.size
			keptBytes -= b.size
		}
	}
	st.Kept = len(survivors) - i
	st.KeptBytes = keptBytes
	return st, nil
}

// isTempName reports whether name is prefix followed by the decimal
// digits os.CreateTemp puts in place of a pattern's "*".
func isTempName(name, prefix string) bool {
	digits, ok := strings.CutPrefix(name, prefix)
	return ok && digits != "" && strings.Trim(digits, "0123456789") == ""
}
