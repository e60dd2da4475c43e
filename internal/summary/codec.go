package summary

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
)

// Binary format. Every stored value is
//
//	magic "IPCS" | version u16 | kind u8 | checksum u64 | payload
//
// with all fixed-width fields big-endian and the checksum an FNV-1a 64
// over the payload. Integers inside the payload are varints; strings
// and slices are length-prefixed. The format is strictly versioned: a
// reader rejects any version it does not know, and the version is also
// folded into every store key (internal/incr), so a codec change
// silently invalidates old entries instead of misreading them.
//
// Decoding is defensive — it must survive arbitrary bytes (the fuzz
// target feeds it some): every length is checked against the bytes
// actually remaining, an expression node may refer only to nodes before
// it, expression nesting is depth-capped, and every failure is an
// error, never a panic.

// Version is the codec version; bump on any format change.
// Version 2 added the warm-start fields of ProcStamp (a jump-function
// fingerprint and the persisted VAL-cell vectors). Version 3 split the
// procedure record into a config-invariant shared blob and a flavor
// blob (kindShared / kindFlavor replacing the old kindProc) and added
// SharedKey to ProcStamp. Version 4 added delta-encoded snapshots
// (kindDelta, value kind 4), which lived only inside snapshot chain
// files. Version 5 dropped the warm-start fields and the callee list
// from ProcStamp, leaving SourceHash and the two keys. Version 6 merged
// the two procedure blobs back into one record (kindProc) and dropped
// SharedKey from ProcStamp. kindDelta and the chain files were removed
// later without a bump: no record or snapshot encoding changed, so
// every stored key stays valid. Version 7 writes each expression list
// as a node table whose operators refer back to earlier nodes, so a
// shared subexpression is written once.
const Version = 7

const magic = "IPCS"

// Value kinds.
const (
	kindProc     = 1
	kindSnapshot = 2
)

const (
	headerSize   = 4 + 2 + 1 + 8
	maxExprDepth = 1 << 12
)

// ErrCorrupt is wrapped by every decode failure.
var ErrCorrupt = errors.New("summary: corrupt data")

func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...))
}

// ---------------------------------------------------------------------------
// Writer

// writer accumulates a payload; index and nodes are the node table of
// the expression list being written.
type writer struct {
	buf   []byte
	index map[Expr]int
	nodes []Expr
}

func (w *writer) uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *writer) varint(v int64)   { w.buf = binary.AppendVarint(w.buf, v) }
func (w *writer) count(n int)      { w.uvarint(uint64(n)) }
func (w *writer) bytes(b []byte)   { w.count(len(b)); w.buf = append(w.buf, b...) }
func (w *writer) str(s string)     { w.count(len(s)); w.buf = append(w.buf, s...) }
func (w *writer) strs(ss []string) {
	w.count(len(ss))
	for _, s := range ss {
		w.str(s)
	}
}
func (w *writer) boolean(b bool) {
	if b {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}
func (w *writer) bools(bs []bool) {
	w.count(len(bs))
	for _, b := range bs {
		w.boolean(b)
	}
}
func (w *writer) ints(vs []int) {
	w.count(len(vs))
	for _, v := range vs {
		w.varint(int64(v))
	}
}
func (w *writer) uses(us []UseCount) {
	w.count(len(us))
	for _, u := range us {
		w.varint(int64(u.Subs))
		w.varint(int64(u.Control))
	}
}

// Expression lists. The codec writes each list of expressions as a node
// table followed by the list:
//
//	node count | node... | entry count | entry...
//
// A node is a leaf (tag 1 constant, 2 formal, 3 global) or an operator
// (tag 4: name, argument count, one node index per argument) whose
// arguments refer back to earlier nodes only. A node the list's
// expressions share is written once, so an expression encodes in
// bytes linear in its DAG, however large its tree. An entry is 0 for ⊥
// or 1 + its node's index.

// exprs writes one expression list.
func (w *writer) exprs(es []Expr) {
	clear(w.index)
	w.nodes = w.nodes[:0]
	for _, e := range es {
		if e != nil {
			w.collect(e)
		}
	}
	w.count(len(w.nodes))
	for _, e := range w.nodes {
		switch e := e.(type) {
		case *Const:
			w.buf = append(w.buf, 1)
			w.varint(e.Val)
		case *Formal:
			w.buf = append(w.buf, 2)
			w.varint(int64(e.Index))
			w.str(e.Name)
		case *Global:
			w.buf = append(w.buf, 3)
			w.varint(int64(e.ID))
			w.str(e.Ref)
		case *Op:
			w.buf = append(w.buf, 4)
			w.str(e.Name)
			w.count(len(e.Args))
			for _, a := range e.Args {
				w.uvarint(uint64(w.index[a]))
			}
		}
	}
	w.count(len(es))
	for _, e := range es {
		if e == nil {
			w.uvarint(0)
		} else {
			w.uvarint(uint64(w.index[e]) + 1)
		}
	}
}

// collect adds e's nodes to the table in postorder, each node once.
func (w *writer) collect(e Expr) {
	if _, ok := w.index[e]; ok {
		return
	}
	switch e := e.(type) {
	case *Const, *Formal, *Global:
	case *Op:
		for _, a := range e.Args {
			w.collect(a)
		}
	default:
		panic(fmt.Sprintf("summary: unencodable expression %T", e))
	}
	if w.index == nil {
		w.index = make(map[Expr]int)
	}
	w.index[e] = len(w.nodes)
	w.nodes = append(w.nodes, e)
}

// expr writes one expression as a list of one.
func (w *writer) expr(e Expr) { w.exprs([]Expr{e}) }

// seal prepends the header (magic, version, kind, payload checksum) to
// the accumulated payload.
func (w *writer) seal(kind byte) []byte {
	out := make([]byte, headerSize, headerSize+len(w.buf))
	copy(out, magic)
	binary.BigEndian.PutUint16(out[4:], Version)
	out[6] = kind
	h := fnv.New64a()
	h.Write(w.buf)
	binary.BigEndian.PutUint64(out[7:], h.Sum64())
	return append(out, w.buf...)
}

// ---------------------------------------------------------------------------
// Reader

// reader walks a payload; scratch holds the node table of the
// expression list being read (DecodeProc sets it).
type reader struct {
	data    []byte
	pos     int
	scratch *nodeTable
}

// nodeTable is a decoder's scratch node table: the nodes of one list
// and their operator nesting. A list's table lives only while the list
// is read, so nodeTables recycles them across lists and records.
type nodeTable struct {
	nodes []Expr
	depth []int32
}

var nodeTables = sync.Pool{New: func() any { return new(nodeTable) }}

func (r *reader) remaining() int { return len(r.data) - r.pos }

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		return 0, corrupt("bad uvarint at offset %d", r.pos)
	}
	r.pos += n
	return v, nil
}

func (r *reader) varint() (int64, error) {
	v, n := binary.Varint(r.data[r.pos:])
	if n <= 0 {
		return 0, corrupt("bad varint at offset %d", r.pos)
	}
	r.pos += n
	return v, nil
}

// count reads a length prefix, refusing any count larger than the bytes
// remaining (every element occupies at least one byte) — the guard that
// keeps hostile lengths from turning into giant allocations.
func (r *reader) count() (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(r.remaining()) {
		return 0, corrupt("count %d exceeds %d remaining bytes", v, r.remaining())
	}
	return int(v), nil
}

func (r *reader) byteVal() (byte, error) {
	if r.remaining() < 1 {
		return 0, corrupt("unexpected end of data")
	}
	b := r.data[r.pos]
	r.pos++
	return b, nil
}

func (r *reader) str() (string, error) {
	n, err := r.count()
	if err != nil {
		return "", err
	}
	s := string(r.data[r.pos : r.pos+n])
	r.pos += n
	return s, nil
}

func (r *reader) strs() ([]string, error) {
	n, err := r.count()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]string, n)
	for i := range out {
		if out[i], err = r.str(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (r *reader) boolean() (bool, error) {
	b, err := r.byteVal()
	if err != nil {
		return false, err
	}
	switch b {
	case 0:
		return false, nil
	case 1:
		return true, nil
	}
	return false, corrupt("bad bool byte %d", b)
}

func (r *reader) bools() ([]bool, error) {
	n, err := r.count()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]bool, n)
	for i := range out {
		if out[i], err = r.boolean(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (r *reader) ints() ([]int, error) {
	n, err := r.count()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]int, n)
	for i := range out {
		v, err := r.varint()
		if err != nil {
			return nil, err
		}
		out[i] = int(v)
	}
	return out, nil
}

func (r *reader) uses() ([]UseCount, error) {
	n, err := r.count()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]UseCount, n)
	for i := range out {
		s, err := r.varint()
		if err != nil {
			return nil, err
		}
		c, err := r.varint()
		if err != nil {
			return nil, err
		}
		out[i] = UseCount{Subs: int(s), Control: int(c)}
	}
	return out, nil
}

// table reads a list's node table into the reader's scratch. The node
// count is bounded by the bytes remaining, an operator's arguments must
// refer to earlier nodes, and no operator may nest deeper than
// maxExprDepth.
func (r *reader) table() ([]Expr, error) {
	n, err := r.count()
	if err != nil {
		return nil, err
	}
	tab := r.scratch
	tab.nodes = append(tab.nodes[:0], make([]Expr, n)...)
	nodes := tab.nodes
	var depth []int32
	for i := range nodes {
		tag, err := r.byteVal()
		if err != nil {
			return nil, err
		}
		switch tag {
		case 1:
			v, err := r.varint()
			if err != nil {
				return nil, err
			}
			nodes[i] = &Const{Val: v}
		case 2:
			idx, err := r.varint()
			if err != nil {
				return nil, err
			}
			name, err := r.str()
			if err != nil {
				return nil, err
			}
			nodes[i] = &Formal{Index: int(idx), Name: name}
		case 3:
			id, err := r.varint()
			if err != nil {
				return nil, err
			}
			ref, err := r.str()
			if err != nil {
				return nil, err
			}
			nodes[i] = &Global{ID: int(id), Ref: ref}
		case 4:
			name, err := r.str()
			if err != nil {
				return nil, err
			}
			argc, err := r.count()
			if err != nil {
				return nil, err
			}
			if depth == nil {
				tab.depth = append(tab.depth[:0], make([]int32, n)...)
				depth = tab.depth
			}
			op := &Op{Name: name, Args: make([]Expr, argc)}
			for j := range op.Args {
				ref, err := r.uvarint()
				if err != nil {
					return nil, err
				}
				if ref >= uint64(i) {
					return nil, corrupt("node %d refers to node %d, not an earlier one", i, ref)
				}
				op.Args[j] = nodes[ref]
				depth[i] = max(depth[i], depth[ref]+1)
			}
			if depth[i] > maxExprDepth {
				return nil, corrupt("expression nesting exceeds %d", maxExprDepth)
			}
			nodes[i] = op
		default:
			return nil, corrupt("bad expression tag %d", tag)
		}
	}
	return nodes, nil
}

// entry reads one list entry of a list over nodes: nil for ⊥, else the
// node it refers to.
func (r *reader) entry(nodes []Expr) (Expr, error) {
	ref, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if ref > uint64(len(nodes)) {
		return nil, corrupt("list entry refers to node %d of a %d-node table", ref-1, len(nodes))
	}
	if ref == 0 {
		return nil, nil
	}
	return nodes[ref-1], nil
}

// exprs reads one expression list.
func (r *reader) exprs() ([]Expr, error) {
	nodes, err := r.table()
	if err != nil {
		return nil, err
	}
	m, err := r.count()
	if err != nil || m == 0 {
		return nil, err
	}
	out := make([]Expr, m)
	for j := range out {
		if out[j], err = r.entry(nodes); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// expr reads a list of one expression.
func (r *reader) expr() (Expr, error) {
	nodes, err := r.table()
	if err != nil {
		return nil, err
	}
	m, err := r.count()
	if err != nil {
		return nil, err
	}
	if m != 1 {
		return nil, corrupt("%d expressions where one belongs", m)
	}
	return r.entry(nodes)
}

// open validates the header against the expected kind and returns a
// reader positioned at the payload.
func open(data []byte, kind byte) (*reader, error) {
	if len(data) < headerSize {
		return nil, corrupt("short header (%d bytes)", len(data))
	}
	if string(data[:4]) != magic {
		return nil, corrupt("bad magic %q", data[:4])
	}
	if v := binary.BigEndian.Uint16(data[4:]); v != Version {
		return nil, corrupt("version %d, want %d", v, Version)
	}
	if data[6] != kind {
		return nil, corrupt("kind %d, want %d", data[6], kind)
	}
	payload := data[headerSize:]
	h := fnv.New64a()
	h.Write(payload)
	if sum := binary.BigEndian.Uint64(data[7:]); sum != h.Sum64() {
		return nil, corrupt("checksum mismatch")
	}
	return &reader{data: payload}, nil
}

// ---------------------------------------------------------------------------
// Procedure summaries

// EncodeProc serializes one procedure's record.
func EncodeProc(s *ProcSummary) []byte {
	w := &writer{}
	w.str(s.Name)
	w.str(s.SourceHash)
	w.strs(s.Callees)
	w.boolean(s.Returns != nil)
	if s.Returns != nil {
		w.expr(s.Returns.Result)
		w.exprs(s.Returns.Formal)
		w.count(len(s.Returns.Globals))
		for _, ge := range s.Returns.Globals {
			w.varint(int64(ge.ID))
			w.str(ge.Ref)
			w.expr(ge.E)
		}
	}
	w.bools(s.ModFormals)
	w.bools(s.RefFormals)
	w.ints(s.ModGlobals)
	w.ints(s.RefGlobals)
	w.uses(s.FormalUses)
	w.uses(s.GlobalUses)
	w.varint(int64(s.SSAPhis))
	w.count(len(s.Sites))
	for _, site := range s.Sites {
		w.str(site.Callee)
		w.exprs(site.Formal)
		w.exprs(site.Global)
	}
	return w.seal(kindProc)
}

// DecodeProc is the inverse of EncodeProc. It never panics: corrupted
// input yields an error wrapping ErrCorrupt.
func DecodeProc(data []byte) (*ProcSummary, error) {
	r, err := open(data, kindProc)
	if err != nil {
		return nil, err
	}
	r.scratch = nodeTables.Get().(*nodeTable)
	defer func() {
		clear(r.scratch.nodes[:cap(r.scratch.nodes)]) // pin no decoded node
		nodeTables.Put(r.scratch)
	}()
	s := &ProcSummary{}
	if s.Name, err = r.str(); err != nil {
		return nil, err
	}
	if s.SourceHash, err = r.str(); err != nil {
		return nil, err
	}
	if s.Callees, err = r.strs(); err != nil {
		return nil, err
	}
	hasReturns, err := r.boolean()
	if err != nil {
		return nil, err
	}
	if hasReturns {
		ret := &ReturnSummary{}
		if ret.Result, err = r.expr(); err != nil {
			return nil, err
		}
		if ret.Formal, err = r.exprs(); err != nil {
			return nil, err
		}
		n, err := r.count()
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			var ge GlobalExpr
			id, err := r.varint()
			if err != nil {
				return nil, err
			}
			ge.ID = int(id)
			if ge.Ref, err = r.str(); err != nil {
				return nil, err
			}
			if ge.E, err = r.expr(); err != nil {
				return nil, err
			}
			ret.Globals = append(ret.Globals, ge)
		}
		s.Returns = ret
	}
	if s.ModFormals, err = r.bools(); err != nil {
		return nil, err
	}
	if s.RefFormals, err = r.bools(); err != nil {
		return nil, err
	}
	if s.ModGlobals, err = r.ints(); err != nil {
		return nil, err
	}
	if s.RefGlobals, err = r.ints(); err != nil {
		return nil, err
	}
	if s.FormalUses, err = r.uses(); err != nil {
		return nil, err
	}
	if s.GlobalUses, err = r.uses(); err != nil {
		return nil, err
	}
	phis, err := r.varint()
	if err != nil {
		return nil, err
	}
	s.SSAPhis = int(phis)
	nsites, err := r.count()
	if err != nil {
		return nil, err
	}
	for i := 0; i < nsites; i++ {
		site := &SiteSummary{}
		if site.Callee, err = r.str(); err != nil {
			return nil, err
		}
		if site.Formal, err = r.exprs(); err != nil {
			return nil, err
		}
		if site.Global, err = r.exprs(); err != nil {
			return nil, err
		}
		s.Sites = append(s.Sites, site)
	}
	if r.remaining() != 0 {
		return nil, corrupt("%d trailing bytes", r.remaining())
	}
	return s, nil
}

// ---------------------------------------------------------------------------
// Snapshots

// stamp writes one procedure's ProcStamp, a snapshot's per-procedure
// body.
func (w *writer) stamp(st ProcStamp) {
	w.str(st.SourceHash)
	w.bytes(st.Key[:])
}

// stamp is the inverse of writer.stamp.
func (r *reader) stamp() (ProcStamp, error) {
	var st ProcStamp
	var err error
	if st.SourceHash, err = r.str(); err != nil {
		return st, err
	}
	klen, err := r.count()
	if err != nil {
		return st, err
	}
	if klen != len(st.Key) {
		return st, corrupt("key length %d, want %d", klen, len(st.Key))
	}
	copy(st.Key[:], r.data[r.pos:])
	r.pos += klen
	return st, nil
}

// EncodeSnapshot serializes a snapshot, procedures sorted by name so
// equal snapshots encode to equal bytes — SaveSnapshotFile skips the
// write of an unchanged snapshot by comparing them.
func EncodeSnapshot(s *Snapshot) []byte {
	w := &writer{}
	w.str(s.ConfigKey)
	w.str(s.GlobalsHash)
	names := make([]string, 0, len(s.Procs))
	for name := range s.Procs {
		names = append(names, name)
	}
	sort.Strings(names)
	w.count(len(names))
	for _, name := range names {
		w.str(name)
		w.stamp(s.Procs[name])
	}
	return w.seal(kindSnapshot)
}

// DecodeSnapshot is the inverse of EncodeSnapshot; corrupted input
// yields an error wrapping ErrCorrupt, never a panic.
func DecodeSnapshot(data []byte) (*Snapshot, error) {
	r, err := open(data, kindSnapshot)
	if err != nil {
		return nil, err
	}
	s := &Snapshot{Procs: make(map[string]ProcStamp)}
	if s.ConfigKey, err = r.str(); err != nil {
		return nil, err
	}
	if s.GlobalsHash, err = r.str(); err != nil {
		return nil, err
	}
	n, err := r.count()
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		name, err := r.str()
		if err != nil {
			return nil, err
		}
		st, err := r.stamp()
		if err != nil {
			return nil, err
		}
		if _, dup := s.Procs[name]; dup {
			return nil, corrupt("duplicate procedure %q", name)
		}
		s.Procs[name] = st
	}
	if r.remaining() != 0 {
		return nil, corrupt("%d trailing bytes", r.remaining())
	}
	return s, nil
}
