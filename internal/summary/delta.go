package summary

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
)

// Delta-encoded snapshots. A full snapshot re-encodes every
// procedure's stamp on every save, growing linearly with program size
// even when one procedure changed; a SnapshotDelta records only the
// stamps an edit added, changed, or removed, against a parent snapshot
// identified by its content key. Deltas persist in a chain file — one
// full frame followed by deltas, each applying to the cumulative state
// before it — that LoadSnapshotChain folds back into a snapshot,
// tolerating a torn tail the way the WAL does: the longest valid
// prefix wins.
//
// Soundness rests on two facts. The snapshot encoding is canonical
// (procedures sorted, nil and empty collapse to the same bytes), so a
// content key names exactly one logical snapshot and a delta can never
// silently apply to the wrong parent. And the chain file only ever
// grows by appended frames or is atomically rewritten from scratch, so
// any crash leaves either the old chain, the old chain plus a torn
// frame (dropped on load), or the new file.

// SnapshotDelta is the difference between two snapshots of one
// configuration lineage.
type SnapshotDelta struct {
	ConfigKey   string
	GlobalsHash string // the child's (an edit may change the global set)

	// Parent is the content key — SnapshotContentKey — of the snapshot
	// this delta applies to.
	Parent Key

	// Updated holds the stamps of procedures the child added or
	// changed; Removed names the ones it no longer has.
	Updated map[string]ProcStamp
	Removed []string
}

// SnapshotContentKey names a snapshot by its canonical encoding — the
// identity a delta's Parent field refers to.
func SnapshotContentKey(s *Snapshot) Key {
	return Key(sha256.Sum256(EncodeSnapshot(s)))
}

// DiffSnapshot computes the delta taking parent to child, or nil when
// the two are not diffable (different lineages, or either side
// missing) and the caller should write a full snapshot instead.
func DiffSnapshot(parent, child *Snapshot) *SnapshotDelta {
	if parent == nil || child == nil || parent.ConfigKey != child.ConfigKey {
		return nil
	}
	d := &SnapshotDelta{
		ConfigKey:   child.ConfigKey,
		GlobalsHash: child.GlobalsHash,
		Parent:      SnapshotContentKey(parent),
		Updated:     make(map[string]ProcStamp),
	}
	for name, st := range child.Procs {
		if old, ok := parent.Procs[name]; !ok || old != st {
			d.Updated[name] = st
		}
	}
	for name := range parent.Procs {
		if _, ok := child.Procs[name]; !ok {
			d.Removed = append(d.Removed, name)
		}
	}
	return d
}

// ApplySnapshotDelta reconstructs the child snapshot from its parent
// and the delta. The parent's content key must match the delta's
// Parent — the check that makes replaying a chain against the wrong
// base an error rather than a silently wrong snapshot.
func ApplySnapshotDelta(parent *Snapshot, d *SnapshotDelta) (*Snapshot, error) {
	if parent == nil {
		return nil, corrupt("delta without a parent snapshot")
	}
	if d.ConfigKey != parent.ConfigKey {
		return nil, corrupt("delta config key %q does not match parent %q", d.ConfigKey, parent.ConfigKey)
	}
	if d.Parent != SnapshotContentKey(parent) {
		return nil, corrupt("delta parent key mismatch")
	}
	out := &Snapshot{
		ConfigKey:   d.ConfigKey,
		GlobalsHash: d.GlobalsHash,
		Procs:       make(map[string]ProcStamp, len(parent.Procs)+len(d.Updated)),
	}
	for name, st := range parent.Procs {
		out.Procs[name] = st
	}
	for _, name := range d.Removed {
		if _, ok := out.Procs[name]; !ok {
			return nil, corrupt("delta removes unknown procedure %q", name)
		}
		delete(out.Procs, name)
	}
	for name, st := range d.Updated {
		out.Procs[name] = st
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Chain files
//
//	magic "IPCH" | version u16 | frames...
//	frame := length u32 | sealed codec value (kindSnapshot, then kindDelta*)

const (
	chainMagic      = "IPCH"
	chainVersion    = 1
	chainHeaderSize = 4 + 2
)

// DeltaPolicy says when a chain save gives up on appending a delta and
// rewrites the full snapshot: after MaxDeltas accumulated edits (so
// loads stay cheap and the chain cannot grow without bound), or when
// one delta exceeds MaxRatio of the full encoding (a rewrite is then
// nearly as cheap and resets the chain).
type DeltaPolicy struct {
	MaxDeltas int
	MaxRatio  float64
}

// DefaultDeltaPolicy rewrites every 8 edits or when a delta reaches
// half the full snapshot's size.
var DefaultDeltaPolicy = DeltaPolicy{MaxDeltas: 8, MaxRatio: 0.5}

// ChainStats reports one SaveSnapshotChain write.
type ChainStats struct {
	Frames        int  // frames in the file after the save, full head included
	WroteFull     bool // true when the save rewrote the chain from scratch
	AppendedBytes int  // bytes this save added to the file (0 = no change)
	DeltaBytes    int  // size of the delta frame appended (0 when full)
	FullBytes     int  // size of the snapshot's full encoding, for comparison
}

// LoadSnapshotChain reads a chain file and folds it into the snapshot
// it represents, returning the frame count consumed. A torn or corrupt
// tail after the first frame is dropped — the longest valid prefix is
// still a snapshot some save produced; a chain whose head frame is
// unreadable is an error.
func LoadSnapshotChain(path string) (*Snapshot, int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("summary: %w", err)
	}
	snap, frames, _, err := decodeChain(data)
	return snap, frames, err
}

// decodeChain also returns the byte offset where the valid prefix ends,
// so a save over a torn chain can truncate the garbage before
// appending.
func decodeChain(data []byte) (*Snapshot, int, int, error) {
	if len(data) < chainHeaderSize || string(data[:4]) != chainMagic {
		return nil, 0, 0, corrupt("not a snapshot chain")
	}
	if v := binary.BigEndian.Uint16(data[4:]); v != chainVersion {
		return nil, 0, 0, corrupt("chain version %d, want %d", v, chainVersion)
	}
	var snap *Snapshot
	frames := 0
	off := chainHeaderSize
	for off < len(data) {
		if len(data)-off < 4 {
			break // torn length prefix
		}
		flen := int(binary.BigEndian.Uint32(data[off:]))
		if flen > len(data)-off-4 {
			break // torn frame
		}
		frame := data[off+4 : off+4+flen]
		if frames == 0 {
			s, err := DecodeSnapshot(frame)
			if err != nil {
				return nil, 0, 0, err
			}
			snap = s
		} else {
			d, err := DecodeSnapshotDelta(frame)
			if err != nil {
				break // corrupt tail: keep the prefix
			}
			next, err := ApplySnapshotDelta(snap, d)
			if err != nil {
				break
			}
			snap = next
		}
		off += 4 + flen
		frames++
	}
	if snap == nil {
		return nil, 0, 0, corrupt("empty snapshot chain")
	}
	return snap, frames, off, nil
}

// LoadSnapshotFile reads a snapshot from path in either on-disk form:
// a delta chain (written by SaveSnapshotChain) or a single full
// encoding (the legacy Save format).
func LoadSnapshotFile(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("summary: %w", err)
	}
	if len(data) >= 4 && string(data[:4]) == chainMagic {
		snap, _, _, err := decodeChain(data)
		return snap, err
	}
	return DecodeSnapshot(data)
}

// SaveSnapshotChain persists s to the chain at path: appending a delta
// frame against the chain's current state when one is resident and
// small enough under the policy, rewriting the file to a single full
// frame otherwise (first save, unreadable or foreign chain, policy
// trip). An unchanged snapshot writes nothing.
func SaveSnapshotChain(path string, s *Snapshot, p DeltaPolicy) (ChainStats, error) {
	if p.MaxDeltas <= 0 {
		p.MaxDeltas = DefaultDeltaPolicy.MaxDeltas
	}
	if p.MaxRatio <= 0 {
		p.MaxRatio = DefaultDeltaPolicy.MaxRatio
	}
	full := EncodeSnapshot(s)
	st := ChainStats{FullBytes: len(full)}

	var parent *Snapshot
	var frames, validEnd int
	fileLen := -1
	if data, rerr := os.ReadFile(path); rerr == nil {
		fileLen = len(data)
		//lint:ignore codecerr a corrupt chain intentionally degrades to writing a fresh full snapshot; nil parent is the handled outcome
		parent, frames, validEnd, _ = decodeChain(data)
	}
	if parent != nil {
		if bytes.Equal(EncodeSnapshot(parent), full) {
			st.Frames = frames
			return st, nil // nothing changed since the last save
		}
		if d := DiffSnapshot(parent, s); d != nil && frames-1 < p.MaxDeltas {
			frame := EncodeSnapshotDelta(d)
			if float64(len(frame)) <= p.MaxRatio*float64(len(full)) {
				if validEnd < fileLen {
					// A crash left a torn frame behind the valid prefix;
					// appending after it would bury the new frame behind
					// garbage the loader stops at.
					if err := os.Truncate(path, int64(validEnd)); err != nil {
						return st, fmt.Errorf("summary: %w", err)
					}
				}
				if err := appendFrame(path, frame); err != nil {
					return st, err
				}
				st.Frames = frames + 1
				st.AppendedBytes = 4 + len(frame)
				st.DeltaBytes = len(frame)
				return st, nil
			}
		}
	}

	// Full rewrite, atomically: header plus one full frame.
	buf := make([]byte, 0, chainHeaderSize+4+len(full))
	buf = append(buf, chainMagic...)
	buf = binary.BigEndian.AppendUint16(buf, chainVersion)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(full)))
	buf = append(buf, full...)
	tmp, err := os.CreateTemp(filepath.Dir(path), ".chain-*")
	if err != nil {
		return st, fmt.Errorf("summary: %w", err)
	}
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return st, fmt.Errorf("summary: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return st, fmt.Errorf("summary: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return st, fmt.Errorf("summary: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return st, fmt.Errorf("summary: %w", err)
	}
	st.Frames = 1
	st.WroteFull = true
	st.AppendedBytes = len(buf)
	return st, nil
}

// appendFrame appends one length-prefixed frame, synced so the frame
// is durable before the save is reported done (a crash mid-append
// leaves a torn tail the loader drops).
func appendFrame(path string, frame []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("summary: %w", err)
	}
	var lp [4]byte
	binary.BigEndian.PutUint32(lp[:], uint32(len(frame)))
	if _, err := f.Write(append(lp[:], frame...)); err != nil {
		f.Close()
		return fmt.Errorf("summary: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("summary: %w", err)
	}
	return f.Close()
}
