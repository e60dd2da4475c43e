package summary

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// sampleDelta exercises every delta field: an added stamp, a changed
// one, and a removal.
func sampleDelta() *SnapshotDelta {
	base := sampleSnapshot()
	return &SnapshotDelta{
		ConfigKey:   base.ConfigKey,
		GlobalsHash: "def456",
		Parent:      SnapshotContentKey(base),
		Updated: map[string]ProcStamp{
			"SOLVE": base.Procs["SOLVE"],
			"NEW":   {SourceHash: "h9", Key: KeyOf("proc", "9")},
		},
		Removed: []string{"STEP"},
	}
}

func TestSnapshotDeltaRoundTrip(t *testing.T) {
	cases := []*SnapshotDelta{
		sampleDelta(),
		{ConfigKey: "c", GlobalsHash: "g"},
		{ConfigKey: "c", Removed: []string{"A", "B"}},
	}
	for i, d := range cases {
		enc := EncodeSnapshotDelta(d)
		got, err := DecodeSnapshotDelta(enc)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		// The codec canonicalizes nil and empty collections; normalize
		// before comparing.
		want := *d
		if want.Updated == nil {
			want.Updated = map[string]ProcStamp{}
		}
		if got.Updated == nil {
			got.Updated = map[string]ProcStamp{}
		}
		if !reflect.DeepEqual(&want, got) {
			t.Fatalf("case %d: round trip mismatch\nwant %+v\ngot  %+v", i, &want, got)
		}
	}
}

func TestDiffApplyInverse(t *testing.T) {
	parent := sampleSnapshot()
	child := sampleSnapshot()
	// One changed stamp, one added, one removed — the shape of a
	// single-procedure edit plus ripple.
	st := child.Procs["SOLVE"]
	st.SourceHash = "h1-edited"
	child.Procs["SOLVE"] = st
	child.Procs["NEW"] = ProcStamp{SourceHash: "hn", Key: KeyOf("proc", "n")}
	delete(child.Procs, "STEP")
	child.GlobalsHash = "changed"

	d := DiffSnapshot(parent, child)
	if d == nil {
		t.Fatal("DiffSnapshot returned nil for diffable snapshots")
	}
	if len(d.Updated) != 2 {
		t.Fatalf("Updated has %d entries, want 2 (SOLVE, NEW): %v", len(d.Updated), d.Updated)
	}
	if len(d.Removed) != 1 || d.Removed[0] != "STEP" {
		t.Fatalf("Removed = %v, want [STEP]", d.Removed)
	}
	got, err := ApplySnapshotDelta(parent, d)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	if SnapshotContentKey(got) != SnapshotContentKey(child) {
		t.Fatal("apply(parent, diff(parent, child)) != child")
	}

	// Round-tripping the delta through the codec must preserve that.
	d2, err := DecodeSnapshotDelta(EncodeSnapshotDelta(d))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	got2, err := ApplySnapshotDelta(parent, d2)
	if err != nil {
		t.Fatalf("apply decoded: %v", err)
	}
	if SnapshotContentKey(got2) != SnapshotContentKey(child) {
		t.Fatal("decoded delta no longer reconstructs child")
	}
}

func TestDiffSnapshotNotDiffable(t *testing.T) {
	a := sampleSnapshot()
	b := sampleSnapshot()
	b.ConfigKey = "other-lineage"
	if DiffSnapshot(a, b) != nil {
		t.Fatal("cross-lineage snapshots diffed")
	}
	if DiffSnapshot(nil, a) != nil || DiffSnapshot(a, nil) != nil {
		t.Fatal("nil side diffed")
	}
}

func TestApplySnapshotDeltaRejectsMismatch(t *testing.T) {
	parent := sampleSnapshot()
	d := sampleDelta()

	wrongParent := sampleSnapshot()
	st := wrongParent.Procs["INIT"]
	st.SourceHash = "drifted"
	wrongParent.Procs["INIT"] = st
	if _, err := ApplySnapshotDelta(wrongParent, d); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("wrong parent content: err = %v, want ErrCorrupt", err)
	}

	wrongCfg := *d
	wrongCfg.ConfigKey = "other"
	if _, err := ApplySnapshotDelta(parent, &wrongCfg); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("wrong config key: err = %v, want ErrCorrupt", err)
	}

	badRemove := *d
	badRemove.Removed = []string{"NO-SUCH-PROC"}
	if _, err := ApplySnapshotDelta(parent, &badRemove); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unknown removal: err = %v, want ErrCorrupt", err)
	}

	if _, err := ApplySnapshotDelta(nil, d); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("nil parent: err = %v, want ErrCorrupt", err)
	}
}

// editN returns a many-procedure snapshot with one procedure's source
// hash bumped to generation n — the minimal one-procedure edit against
// a program big enough that its delta is small relative to the full
// encoding.
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

func TestChainSaveLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snapshot-x.snap")

	// First save writes a full frame.
	st, err := SaveSnapshotChain(path, editN(0), DeltaPolicy{})
	if err != nil {
		t.Fatalf("first save: %v", err)
	}
	if !st.WroteFull || st.Frames != 1 {
		t.Fatalf("first save: stats %+v, want full rewrite with 1 frame", st)
	}

	// A one-procedure edit appends a delta much smaller than the full
	// encoding.
	st, err = SaveSnapshotChain(path, editN(1), DeltaPolicy{})
	if err != nil {
		t.Fatalf("delta save: %v", err)
	}
	if st.WroteFull || st.Frames != 2 || st.DeltaBytes == 0 {
		t.Fatalf("delta save: stats %+v, want appended delta frame", st)
	}
	if st.DeltaBytes >= st.FullBytes {
		t.Fatalf("delta (%d bytes) not smaller than full (%d bytes)", st.DeltaBytes, st.FullBytes)
	}

	// Loading folds the chain back into the latest snapshot.
	snap, frames, err := LoadSnapshotChain(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if frames != 2 {
		t.Fatalf("loaded %d frames, want 2", frames)
	}
	if SnapshotContentKey(snap) != SnapshotContentKey(editN(1)) {
		t.Fatal("folded chain does not equal the last saved snapshot")
	}

	// Saving the identical snapshot writes nothing.
	before, _ := os.ReadFile(path)
	st, err = SaveSnapshotChain(path, editN(1), DeltaPolicy{})
	if err != nil {
		t.Fatalf("no-op save: %v", err)
	}
	after, _ := os.ReadFile(path)
	if st.AppendedBytes != 0 || len(after) != len(before) {
		t.Fatalf("unchanged snapshot grew the chain: stats %+v, %d -> %d bytes", st, len(before), len(after))
	}
}

func TestChainMaxDeltasTripsRewrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snapshot-x.snap")
	p := DeltaPolicy{MaxDeltas: 2, MaxRatio: 1.0}
	for i := 0; i <= 2; i++ {
		if _, err := SaveSnapshotChain(path, editN(i), p); err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
	}
	// Frames now: full + 2 deltas. The next edit must rewrite.
	st, err := SaveSnapshotChain(path, editN(3), p)
	if err != nil {
		t.Fatalf("save past MaxDeltas: %v", err)
	}
	if !st.WroteFull || st.Frames != 1 {
		t.Fatalf("save past MaxDeltas: stats %+v, want full rewrite", st)
	}
	snap, _, err := LoadSnapshotChain(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if SnapshotContentKey(snap) != SnapshotContentKey(editN(3)) {
		t.Fatal("rewritten chain does not equal the last saved snapshot")
	}
}

func TestChainRatioTripsRewrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snapshot-x.snap")
	if _, err := SaveSnapshotChain(path, editN(0), DeltaPolicy{}); err != nil {
		t.Fatalf("first save: %v", err)
	}
	// A tiny MaxRatio makes any delta oversized, forcing a rewrite.
	st, err := SaveSnapshotChain(path, editN(1), DeltaPolicy{MaxDeltas: 8, MaxRatio: 0.0001})
	if err != nil {
		t.Fatalf("save: %v", err)
	}
	if !st.WroteFull {
		t.Fatalf("oversized delta appended anyway: stats %+v", st)
	}
}

func TestChainTornTailKeepsPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snapshot-x.snap")
	if _, err := SaveSnapshotChain(path, editN(0), DeltaPolicy{}); err != nil {
		t.Fatalf("save: %v", err)
	}
	if _, err := SaveSnapshotChain(path, editN(1), DeltaPolicy{}); err != nil {
		t.Fatalf("save: %v", err)
	}

	// Tear the last delta frame mid-way, as a crash during appendFrame
	// would.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	snap, frames, err := LoadSnapshotChain(path)
	if err != nil {
		t.Fatalf("load with torn tail: %v", err)
	}
	if frames != 1 {
		t.Fatalf("loaded %d frames, want the 1-frame prefix", frames)
	}
	if SnapshotContentKey(snap) != SnapshotContentKey(editN(0)) {
		t.Fatal("torn chain did not fold to the surviving prefix")
	}

	// The next save notices the chain state and still converges: it may
	// append against the prefix or rewrite, but the load must equal the
	// save.
	if _, err := SaveSnapshotChain(path, editN(2), DeltaPolicy{}); err != nil {
		t.Fatalf("save after tear: %v", err)
	}
	snap, _, err = LoadSnapshotChain(path)
	if err != nil {
		t.Fatalf("load after tear+save: %v", err)
	}
	if SnapshotContentKey(snap) != SnapshotContentKey(editN(2)) {
		t.Fatal("chain diverged after torn tail recovery")
	}
}

func TestChainCorruptHeadIsError(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snapshot-x.snap")
	buf := []byte(chainMagic)
	buf = binary.BigEndian.AppendUint16(buf, chainVersion)
	buf = binary.BigEndian.AppendUint32(buf, 8)
	buf = append(buf, []byte("garbage!")...)
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadSnapshotChain(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt head frame: err = %v, want ErrCorrupt", err)
	}
	// SaveSnapshotChain on an unreadable chain falls back to a full
	// rewrite rather than failing.
	st, err := SaveSnapshotChain(path, editN(0), DeltaPolicy{})
	if err != nil {
		t.Fatalf("save over corrupt chain: %v", err)
	}
	if !st.WroteFull {
		t.Fatalf("save over corrupt chain: stats %+v, want full rewrite", st)
	}
}

func TestLoadSnapshotFileLegacy(t *testing.T) {
	dir := t.TempDir()

	// Legacy form: a bare full encoding, as Snapshot.Save writes it.
	legacy := filepath.Join(dir, "snapshot-legacy.snap")
	if err := os.WriteFile(legacy, EncodeSnapshot(editN(0)), 0o644); err != nil {
		t.Fatal(err)
	}
	snap, err := LoadSnapshotFile(legacy)
	if err != nil {
		t.Fatalf("legacy load: %v", err)
	}
	if SnapshotContentKey(snap) != SnapshotContentKey(editN(0)) {
		t.Fatal("legacy snapshot did not round-trip")
	}

	// Chain form through the same entry point.
	chain := filepath.Join(dir, "snapshot-chain.snap")
	if _, err := SaveSnapshotChain(chain, editN(1), DeltaPolicy{}); err != nil {
		t.Fatal(err)
	}
	snap, err = LoadSnapshotFile(chain)
	if err != nil {
		t.Fatalf("chain load: %v", err)
	}
	if SnapshotContentKey(snap) != SnapshotContentKey(editN(1)) {
		t.Fatal("chain snapshot did not round-trip")
	}
}
