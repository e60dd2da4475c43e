package incr

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"ipcp/internal/core"
	"ipcp/internal/core/jump"
	"ipcp/internal/mf/parser"
	"ipcp/internal/mf/sema"
	"ipcp/internal/suite"
	"ipcp/internal/summary"
)

func mustSema(t *testing.T, src string) *sema.Program {
	t.Helper()
	f, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	sp, err := sema.Analyze(f)
	if err != nil {
		t.Fatalf("sema: %v", err)
	}
	return sp
}

const factSrc = `
PROGRAM MAIN
  INTEGER R
  R = FACT(5)
  WRITE(*,*) R
END
INTEGER FUNCTION FACT(N)
  INTEGER N
  IF (N .LE. 1) THEN
    FACT = 1
  ELSE
    FACT = N * FACT(N-1)
  ENDIF
  RETURN
END
`

// TestRecursiveSummaryWithReturnsRejected: a derivation never gives a
// procedure in a call-graph cycle return jump functions, so a stored
// summary that does is not what re-deriving would produce.
// Binding must reject it, counting a miss and re-deriving FACT, and the
// result must still be the scratch one.
func TestRecursiveSummaryWithReturnsRejected(t *testing.T) {
	sp := mustSema(t, factSrc)
	cfg := core.Config{Jump: jump.Polynomial, ReturnJFs: true, MOD: true, Workers: 1}
	store := summary.NewMemStore(0)
	e := NewEngine(store)
	_, snap, _, err := e.Analyze(sp, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}

	key := snap.Procs["FACT"].Key
	data, ok := store.Get(key)
	if !ok {
		t.Fatal("FACT's summary was not stored")
	}
	ss, err := summary.DecodeProc(data)
	if err != nil {
		t.Fatal(err)
	}
	if ss.Returns != nil {
		t.Fatal("recursive FACT was stored with return jump functions")
	}
	ss.Returns = &summary.ReturnSummary{
		Result: &summary.Const{Val: 1},
		Formal: make([]summary.Expr, len(ss.ModFormals)),
	}
	if err := store.Put(key, summary.EncodeProc(ss)); err != nil {
		t.Fatal(err)
	}

	res, _, st, err := e.Analyze(sp, cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	if st.Reanalyzed != 1 || st.Hits != st.TotalProcs-1 || st.Misses != 1 {
		t.Errorf("stats %+v: want FACT alone re-derived, its lookup a miss", st)
	}
	want := core.Analyze(sp, cfg)
	if !reflect.DeepEqual(res.Procs, want.Procs) || res.TotalSubstituted != want.TotalSubstituted ||
		res.TotalConstants != want.TotalConstants || res.JFShape != want.JFShape {
		t.Errorf("incremental result differs from scratch:\n got  %+v\n want %+v", res.Procs, want.Procs)
	}
}

// peakStore is a store whose lookups take 200 µs each and which records
// the largest number of lookups ever in flight at once.
type peakStore struct {
	summary.Store
	inFlight, peak atomic.Int64
}

func (s *peakStore) Get(k summary.Key) ([]byte, bool) {
	n := s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	for {
		p := s.peak.Load()
		if n <= p || s.peak.CompareAndSwap(p, n) {
			break
		}
	}
	time.Sleep(200 * time.Microsecond)
	return s.Store.Get(k)
}

// TestSequentialFetch: with Workers 1 the store lookups run one at a
// time, as the sequential reference path promises.
func TestSequentialFetch(t *testing.T) {
	sp := mustSema(t, suite.Generate("doduc", 4).Source)
	cfg := core.Config{Jump: jump.PassThrough, ReturnJFs: true, MOD: true, Workers: 1}
	store := &peakStore{Store: summary.NewMemStore(0)}
	e := NewEngine(store)
	if _, _, _, err := e.Analyze(sp, cfg, nil); err != nil {
		t.Fatal(err)
	}
	store.peak.Store(0)
	_, _, st, err := e.Analyze(sp, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Hits != st.TotalProcs {
		t.Errorf("second run hit %d of %d procedures", st.Hits, st.TotalProcs)
	}
	if p := store.peak.Load(); p != 1 {
		t.Errorf("peak lookups in flight = %d with Workers 1, want 1", p)
	}
}

// countingStore counts the lookups and writes that reach a store.
type countingStore struct {
	summary.Store
	gets, puts atomic.Int64
}

func (s *countingStore) Get(k summary.Key) ([]byte, bool) {
	s.gets.Add(1)
	return s.Store.Get(k)
}

func (s *countingStore) Put(k summary.Key, v []byte) error {
	s.puts.Add(1)
	return s.Store.Put(k, v)
}

// TestOneStoreReadPerProcedure: each procedure is one record under one
// key. A first run writes one record per procedure, and a re-run
// against its snapshot reads each record once and writes nothing.
func TestOneStoreReadPerProcedure(t *testing.T) {
	sp := mustSema(t, suite.Generate("doduc", 4).Source)
	cfg := core.Config{Jump: jump.PassThrough, ReturnJFs: true, MOD: true, Workers: 1}
	store := &countingStore{Store: summary.NewMemStore(0)}
	e := NewEngine(store)
	_, snap, first, err := e.Analyze(sp, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p := store.puts.Load(); p != int64(first.TotalProcs) {
		t.Errorf("first run made %d Puts for %d procedures, want one each", p, first.TotalProcs)
	}
	store.gets.Store(0)
	store.puts.Store(0)
	_, _, st, err := e.Analyze(sp, cfg, snap)
	if err != nil {
		t.Fatal(err)
	}
	if st.Hits != st.TotalProcs {
		t.Fatalf("re-run hit %d of %d procedures", st.Hits, st.TotalProcs)
	}
	if g := store.gets.Load(); g != int64(st.TotalProcs) {
		t.Errorf("re-run made %d Gets for %d procedures, want one each", g, st.TotalProcs)
	}
	if p := store.puts.Load(); p != 0 {
		t.Errorf("re-run made %d Puts, want none", p)
	}
}
