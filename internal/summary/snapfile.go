package summary

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
)

// Snapshot files. A snapshot file holds exactly one sealed snapshot
// encoding (EncodeSnapshot), so loading one is a read and a decode. A
// snapshot is only a reuse hint: a missing or unreadable file costs the
// next run lookups by content key, never correctness. Any file that
// does not decode — torn, garbage, or a delta chain ("IPCH") written
// before chains were removed — loads as ErrCorrupt, pins nothing in
// GCDir, and is replaced by the next save.

// LoadSnapshotFile reads the snapshot SaveSnapshotFile wrote to path.
func LoadSnapshotFile(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("summary: %w", err)
	}
	return DecodeSnapshot(data)
}

// SaveSnapshotFile writes s to path. It writes nothing when the file
// already holds s's encoding, which is canonical, so an unchanged
// snapshot keeps its file's bytes and mtime. Otherwise it writes a
// temporary file in path's directory, syncs it and renames it over
// path: a crash leaves either the old file or the new one.
func SaveSnapshotFile(path string, s *Snapshot) error {
	_, err := writeSnapshotFile(path, EncodeSnapshot(s))
	return err
}

// writeSnapshotFile is SaveSnapshotFile over an encoding; it reports
// whether it wrote the file.
func writeSnapshotFile(path string, enc []byte) (bool, error) {
	if old, err := os.ReadFile(path); err == nil && bytes.Equal(old, enc) {
		return false, nil
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".snap-*")
	if err != nil {
		return false, fmt.Errorf("summary: %w", err)
	}
	_, err = tmp.Write(enc)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return false, fmt.Errorf("summary: %w", err)
	}
	return true, nil
}

// DeltaPolicy configures nothing: snapshot files are never
// delta-encoded.
//
// Deprecated: use SaveSnapshotFile, which takes no policy.
type DeltaPolicy struct{}

// ChainStats reports one SaveSnapshotChain write.
//
// Deprecated: use SaveSnapshotFile.
type ChainStats struct {
	AppendedBytes int // bytes the save wrote: FullBytes, or 0 when the file was unchanged
	FullBytes     int // size of the snapshot's encoding
}

// SaveSnapshotChain is SaveSnapshotFile plus the sizes it wrote; the
// policy is ignored.
//
// Deprecated: use SaveSnapshotFile.
func SaveSnapshotChain(path string, s *Snapshot, _ DeltaPolicy) (ChainStats, error) {
	enc := EncodeSnapshot(s)
	st := ChainStats{FullBytes: len(enc)}
	wrote, err := writeSnapshotFile(path, enc)
	if wrote {
		st.AppendedBytes = len(enc)
	}
	return st, err
}
