package summary

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"ipcp/internal/ir"
	"ipcp/internal/sym"
)

// sampleProc exercises every field of the record: a full return
// summary with nested expressions and nil (⊥) slots, non-empty MOD/REF
// and use vectors, and multiple sites with nil (⊥) slots and nested
// expressions.
func sampleProc() *ProcSummary {
	return &ProcSummary{
		Name:       "SOLVE",
		SourceHash: "deadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeefdeadbeef",
		Callees:    []string{"INIT", "STEP"},
		Returns: &ReturnSummary{
			Result: &Op{Name: "+", Args: []Expr{&Formal{Index: 0, Name: "N"}, &Const{Val: 1}}},
			Formal: []Expr{&Formal{Index: 0, Name: "N"}, nil},
			Globals: []GlobalExpr{
				{ID: 2, Ref: "COM.K", E: &Const{Val: 42}},
				{ID: 5, Ref: "COM.M", E: &Global{ID: 5, Ref: "COM.M"}},
			},
		},
		ModFormals: []bool{true, false},
		RefFormals: []bool{true, true},
		ModGlobals: []int{2},
		RefGlobals: []int{2, 5},
		FormalUses: []UseCount{{Subs: 4, Control: 2}, {Subs: 0, Control: 0}},
		GlobalUses: []UseCount{{Subs: 1, Control: 1}},
		SSAPhis:    3,
		Sites: []*SiteSummary{
			{
				Callee: "INIT",
				Formal: []Expr{&Const{Val: -7}, nil},
				Global: []Expr{&Op{Name: "*", Args: []Expr{&Const{Val: 2}, &Global{ID: 2, Ref: "COM.K"}}}},
			},
			{Callee: "STEP", Formal: nil, Global: []Expr{nil}},
		},
	}
}

func sampleSnapshot() *Snapshot {
	return &Snapshot{
		ConfigKey:   KeyOf("config", "test").String(),
		GlobalsHash: "abc123",
		Procs: map[string]ProcStamp{
			"SOLVE": {SourceHash: "h1", Key: KeyOf("proc", "1")},
			"INIT":  {SourceHash: "h2", Key: KeyOf("proc", "2")},
			"STEP":  {SourceHash: "h3", Key: KeyOf("proc", "3")},
		},
	}
}

// roundTripProcs encodes and decodes each record and requires the
// decoded record to equal the original.
func roundTripProcs(t *testing.T, cases []*ProcSummary) {
	t.Helper()
	for _, s := range cases {
		enc := EncodeProc(s)
		got, err := DecodeProc(enc)
		if err != nil {
			t.Fatalf("%s: decode: %v", s.Name, err)
		}
		if !reflect.DeepEqual(s, got) {
			t.Fatalf("%s: round trip mismatch\nwant %+v\ngot  %+v", s.Name, s, got)
		}
	}
}

// TestProcRoundTrip round-trips whole records: procedure-level fields
// and call sites together.
func TestProcRoundTrip(t *testing.T) {
	roundTripProcs(t, []*ProcSummary{
		sampleProc(),
		{Name: "EMPTY", SourceHash: "h"},
	})
}

// TestSharedRoundTrip round-trips records that carry only the
// procedure-level fields (return summary, MOD/REF, use vectors, callees)
// and no call sites.
func TestSharedRoundTrip(t *testing.T) {
	full := sampleProc()
	full.Sites = nil
	roundTripProcs(t, []*ProcSummary{
		full,
		{Name: "LEAF", SourceHash: "h", Returns: &ReturnSummary{Formal: []Expr{nil}}},
	})
}

// TestFlavorRoundTrip round-trips records that carry only call sites,
// with nil (⊥) slots and nested expressions, and no procedure-level
// fields.
func TestFlavorRoundTrip(t *testing.T) {
	full := sampleProc()
	roundTripProcs(t, []*ProcSummary{
		{Name: full.Name, SourceHash: full.SourceHash, Sites: full.Sites},
		{Name: "ONE", SourceHash: "h", Sites: []*SiteSummary{{Callee: "EMPTY"}}},
	})
}

func TestSnapshotRoundTrip(t *testing.T) {
	s := sampleSnapshot()
	got, err := DecodeSnapshot(EncodeSnapshot(s))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, got) {
		t.Fatalf("round trip mismatch\nwant %+v\ngot  %+v", s, got)
	}
}

// TestEncodeDeterministic pins that encoding is byte-for-byte stable —
// content-addressed storage and snapshot diffing both rely on it. The
// snapshot case matters most: its procs live in a map, so the encoder
// must impose an order.
func TestEncodeDeterministic(t *testing.T) {
	for i := 0; i < 10; i++ {
		if !bytes.Equal(EncodeProc(sampleProc()), EncodeProc(sampleProc())) {
			t.Fatal("EncodeProc is not deterministic")
		}
		if !bytes.Equal(EncodeSnapshot(sampleSnapshot()), EncodeSnapshot(sampleSnapshot())) {
			t.Fatal("EncodeSnapshot is not deterministic")
		}
	}
}

// TestGoldenHeader pins the wire header so accidental format changes
// without a Version bump are caught.
func TestGoldenHeader(t *testing.T) {
	enc := EncodeProc(&ProcSummary{Name: "P", SourceHash: "h"})
	if string(enc[:4]) != "IPCS" {
		t.Fatalf("magic = %q, want IPCS", enc[:4])
	}
	if v := uint16(enc[4])<<8 | uint16(enc[5]); v != 7 || Version != 7 {
		t.Fatalf("version = %d (Version %d), want 7", v, Version)
	}
	if enc[6] != 1 {
		t.Fatalf("kind = %d, want 1 (procedure)", enc[6])
	}
	snap := EncodeSnapshot(&Snapshot{Procs: map[string]ProcStamp{}})
	if snap[6] != 2 {
		t.Fatalf("snapshot kind = %d, want 2", snap[6])
	}
}

// TestDecodeCorrupt flips every byte of valid encodings one at a time:
// decode must either succeed-with-equal-value (impossible here thanks
// to the checksum) or return an error wrapping ErrCorrupt — it must
// never panic and never return silently wrong data.
func TestDecodeCorrupt(t *testing.T) {
	enc := EncodeProc(sampleProc())
	for i := range enc {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0x41
		if _, err := DecodeProc(mut); err == nil {
			t.Fatalf("byte %d flipped: decode succeeded", i)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("byte %d flipped: error %v does not wrap ErrCorrupt", i, err)
		}
	}
	snap := EncodeSnapshot(sampleSnapshot())
	for i := range snap {
		mut := append([]byte(nil), snap...)
		mut[i] ^= 0x41
		if _, err := DecodeSnapshot(mut); err == nil {
			t.Fatalf("snapshot byte %d flipped: decode succeeded", i)
		}
	}
}

// TestDecodeTruncated drops suffixes: every proper prefix must fail
// cleanly, as must trailing garbage.
func TestDecodeTruncated(t *testing.T) {
	enc := EncodeProc(sampleProc())
	for n := 0; n < len(enc); n++ {
		if _, err := DecodeProc(enc[:n]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("prefix of %d bytes: error %v does not wrap ErrCorrupt", n, err)
		}
	}
	if _, err := DecodeProc(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	if _, err := DecodeProc(nil); !errors.Is(err, ErrCorrupt) {
		t.Fatal("nil input must report corruption")
	}
	// Kind confusion: every record kind fed to every other decoder.
	if _, err := DecodeProc(EncodeSnapshot(sampleSnapshot())); !errors.Is(err, ErrCorrupt) {
		t.Fatal("snapshot bytes accepted as procedure record")
	}
	if _, err := DecodeSnapshot(enc); !errors.Is(err, ErrCorrupt) {
		t.Fatal("procedure bytes accepted as snapshot")
	}
}

func TestKeyOfFraming(t *testing.T) {
	// Length-prefixed framing: concatenation ambiguity must not collide.
	if KeyOf("ab", "c") == KeyOf("a", "bc") {
		t.Fatal("KeyOf collides under re-framing")
	}
	if KeyOf("a", "b") == KeyOf("a", "b", "") {
		t.Fatal("KeyOf ignores empty trailing part")
	}
}

func TestMemStoreEviction(t *testing.T) {
	s := NewMemStore(2)
	k1, k2, k3 := KeyOf("1"), KeyOf("2"), KeyOf("3")
	for _, k := range []Key{k1, k2, k3} {
		if err := s.Put(k, []byte(k.String())); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d after eviction, want 2", s.Len())
	}
	if _, ok := s.Get(k1); ok {
		t.Fatal("oldest entry survived eviction")
	}
	if v, ok := s.Get(k3); !ok || string(v) != k3.String() {
		t.Fatal("newest entry lost")
	}
	st := s.Stats()
	if st.Evictions != 1 || st.Puts != 3 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestMemStoreLRUPromotion pins that Get refreshes recency: touching
// the oldest entry must divert the next eviction to the untouched one.
func TestMemStoreLRUPromotion(t *testing.T) {
	s := NewMemStore(2)
	k1, k2, k3 := KeyOf("1"), KeyOf("2"), KeyOf("3")
	mustPut(t, s, k1)
	mustPut(t, s, k2)
	if _, ok := s.Get(k1); !ok { // promote k1 over k2
		t.Fatal("k1 missing before eviction")
	}
	mustPut(t, s, k3) // evicts k2, the least recently used
	if _, ok := s.Get(k2); ok {
		t.Fatal("least recently used entry survived eviction")
	}
	if _, ok := s.Get(k1); !ok {
		t.Fatal("recently read entry was evicted")
	}
	if _, ok := s.Get(k3); !ok {
		t.Fatal("newest entry was evicted")
	}
}

func mustPut(t *testing.T, s Store, k Key) {
	t.Helper()
	if err := s.Put(k, []byte(k.String())); err != nil {
		t.Fatal(err)
	}
}

func TestDiskStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := KeyOf("proc", "X")
	if _, ok := s.Get(k); ok {
		t.Fatal("hit on empty store")
	}
	if err := s.Put(k, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	// A second handle over the same directory sees the entry.
	s2, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := s2.Get(k); !ok || string(v) != "payload" {
		t.Fatalf("cross-handle read got %q, %v", v, ok)
	}
}

// chainExpr returns the portable doubling chain of depth d: each
// operator adds the node before it to itself, so the expression is a
// DAG of d operators over a tree of 2^d leaves.
func chainExpr(d int) Expr {
	var e Expr = &Formal{Index: 0, Name: "K0"}
	for i := 0; i < d; i++ {
		e = &Op{Name: "add", Args: []Expr{e, e}}
	}
	return e
}

// TestExprSharingRoundTrip encodes a record whose return and site jump
// functions are the d = 40 chain: the encoding must grow linearly in d,
// and the decoded expressions must share their nodes as the encoded
// ones did.
func TestExprSharingRoundTrip(t *testing.T) {
	record := func(d int) *ProcSummary {
		e := chainExpr(d)
		return &ProcSummary{
			Name:       "CHAIN",
			SourceHash: "h",
			Returns:    &ReturnSummary{Result: e, Formal: []Expr{e}},
			Sites:      []*SiteSummary{{Callee: "SINK", Formal: []Expr{e, nil, e}}},
		}
	}
	enc20, enc40 := EncodeProc(record(20)), EncodeProc(record(40))
	// Three lists hold the chain; each writes its 40 operators once, at
	// 8 bytes apiece.
	if grow := len(enc40) - len(enc20); grow > 3*20*8 {
		t.Fatalf("20 more chain links cost %d bytes (%d at d = 20, %d at d = 40)", grow, len(enc20), len(enc40))
	}
	roundTripProcs(t, []*ProcSummary{record(40)})
	got, err := DecodeProc(enc40)
	if err != nil {
		t.Fatal(err)
	}
	site := got.Sites[0].Formal
	if site[0] != site[2] {
		t.Fatal("one list's two entries for one node decoded as two nodes")
	}
	e, depth := site[0], 0
	for {
		op, ok := e.(*Op)
		if !ok {
			break
		}
		if op.Args[0] != op.Args[1] {
			t.Fatalf("link %d: the shared argument decoded as two nodes", depth)
		}
		e, depth = op.Args[0], depth+1
	}
	if depth != 40 {
		t.Fatalf("decoded chain has depth %d, want 40", depth)
	}
}

// procWithList seals a record with one call site whose formal list is
// whatever list writes, so a test can hand the decoder a node table no
// encoder would produce.
func procWithList(list func(w *writer)) []byte {
	w := &writer{}
	w.str("P")
	w.str("h")
	w.strs(nil)
	w.boolean(false)
	w.bools(nil)
	w.bools(nil)
	w.ints(nil)
	w.ints(nil)
	w.uses(nil)
	w.uses(nil)
	w.varint(0)
	w.count(1)
	w.str("Q")
	list(w)
	w.exprs(nil)
	return w.seal(kindProc)
}

// constNode and addNode write raw node-table entries.
func constNode(w *writer, v int64) {
	w.buf = append(w.buf, 1)
	w.varint(v)
}

func addNode(w *writer, refs ...uint64) {
	w.buf = append(w.buf, 4)
	w.str("add")
	w.count(len(refs))
	for _, r := range refs {
		w.uvarint(r)
	}
}

// TestDecodeRejectsBadNodeTables hands the decoder node tables that
// refer where no node is: each must fail with ErrCorrupt, never panic
// or build a cycle. The well-formed table decodes.
func TestDecodeRejectsBadNodeTables(t *testing.T) {
	cases := []struct {
		name string
		list func(w *writer)
		ok   bool
	}{
		{"well formed", func(w *writer) {
			w.count(2)
			constNode(w, 1)
			addNode(w, 0, 0)
			w.count(1)
			w.uvarint(2)
		}, true},
		{"argument refers to its own node", func(w *writer) {
			w.count(2)
			constNode(w, 1)
			addNode(w, 0, 1)
			w.count(1)
			w.uvarint(2)
		}, false},
		{"argument refers to a later node", func(w *writer) {
			w.count(3)
			constNode(w, 1)
			addNode(w, 0, 2)
			constNode(w, 2)
			w.count(1)
			w.uvarint(2)
		}, false},
		{"argument refers past the table", func(w *writer) {
			w.count(2)
			constNode(w, 1)
			addNode(w, 0, 7)
			w.count(1)
			w.uvarint(2)
		}, false},
		{"list entry refers past the table", func(w *writer) {
			w.count(1)
			constNode(w, 1)
			w.count(1)
			w.uvarint(2)
		}, false},
		{"node count exceeds the bytes remaining", func(w *writer) {
			w.count(1000)
			constNode(w, 1)
			w.count(1)
			w.uvarint(1)
		}, false},
	}
	for _, tc := range cases {
		s, err := DecodeProc(procWithList(tc.list))
		switch {
		case tc.ok && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.ok && len(s.Sites) != 1:
			t.Errorf("%s: decoded %d sites", tc.name, len(s.Sites))
		case !tc.ok && !errors.Is(err, ErrCorrupt):
			t.Errorf("%s: error %v does not wrap ErrCorrupt", tc.name, err)
		}
	}
}

// TestBindRejectsWrongArity binds decodable operators with the wrong
// number of arguments: each is an error, never a fold that indexes
// past its operands.
func TestBindRejectsWrongArity(t *testing.T) {
	b := NewBinder(ir.NewProgram(), 1)
	n := &Formal{Index: 0, Name: "N"}
	for _, e := range []Expr{
		&Op{Name: "add"},
		&Op{Name: "add", Args: []Expr{n}},
		&Op{Name: "neg", Args: []Expr{n, n}},
		&Op{Name: "max"},
	} {
		if got, err := b.ToSym(e); err == nil {
			t.Errorf("%s over %d arguments bound to %v", e.(*Op).Name, len(e.(*Op).Args), got)
		}
	}
}

// TestExportDepthMatchesDecoder exports the symbolic sums J + 1 + … + 1
// nested exactly as deep as the decoder accepts and one deeper: the
// first is stored and read back, the second is refused at export, so
// no record is written that every read would reject.
func TestExportDepthMatchesDecoder(t *testing.T) {
	var tab sym.Table
	var e sym.Expr = &sym.Formal{Index: 0, Name: "J"}
	for d := 1; d <= maxExprDepth+1; d++ {
		e = tab.MakeOp(ir.OpAdd, e, sym.NewConst(1))
		if d < maxExprDepth {
			continue
		}
		var x Exporter
		pe, err := x.FromSym(e)
		if d > maxExprDepth {
			if err == nil {
				t.Fatalf("depth %d exported, but the decoder rejects it", d)
			}
			continue
		}
		if err != nil {
			t.Fatalf("depth %d: %v", d, err)
		}
		enc := EncodeProc(&ProcSummary{Name: "DEEP", SourceHash: "h", Returns: &ReturnSummary{Result: pe, Formal: []Expr{pe}}})
		if _, err := DecodeProc(enc); err != nil {
			t.Fatalf("depth %d exported, then failed to decode: %v", d, err)
		}
	}
}
