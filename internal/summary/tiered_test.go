package summary

import (
	"bytes"
	"errors"
	"testing"
)

// TestTieredReadThroughFill pins the promotion path: a value present
// only in a slow tier is served through the stack and copied into
// every faster tier, so the next lookup stops at tier 0.
func TestTieredReadThroughFill(t *testing.T) {
	fast, slow := NewMemStore(0), NewMemStore(0)
	s := NewTieredStore(fast, slow)

	k := KeyOf("fill")
	if err := slow.Put(k, []byte("deep")); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Get(k); !ok || !bytes.Equal(v, []byte("deep")) {
		t.Fatalf("stack Get = %q, %v", v, ok)
	}
	if v, ok := fast.Get(k); !ok || !bytes.Equal(v, []byte("deep")) {
		t.Fatalf("fast tier after read-through = %q, %v; want filled", v, ok)
	}
	// The stack counts one logical hit, not one per tier probed.
	if st := s.Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("stack stats = %+v", st)
	}
}

// TestTieredWriteThrough pins that every tier holds the value as soon
// as Put returns nil.
func TestTieredWriteThrough(t *testing.T) {
	fast, slow := NewMemStore(0), NewMemStore(0)
	s := NewTieredStore(fast, slow)

	k := KeyOf("writethrough")
	if err := s.Put(k, []byte("v")); err != nil {
		t.Fatal(err)
	}
	for i, tier := range []*MemStore{fast, slow} {
		if v, ok := tier.Get(k); !ok || !bytes.Equal(v, []byte("v")) {
			t.Fatalf("tier %d right after Put = %q, %v", i, v, ok)
		}
	}
}

// failingStore is a tier that holds nothing: every Put fails with its
// own error.
type failingStore struct {
	counters
	err error
}

func (f *failingStore) Get(Key) ([]byte, bool) { return nil, false }
func (f *failingStore) Put(Key, []byte) error {
	f.errors.Add(1)
	return f.err
}
func (f *failingStore) Stats() StoreStats { return f.stats() }

// TestTieredPutReturnsFirstError drives two failing tiers between
// working ones: Put returns the first tier's failure, still writes the
// tiers behind it, and counts no put.
func TestTieredPutReturnsFirstError(t *testing.T) {
	first := &failingStore{err: errors.New("disk full")}
	second := &failingStore{err: errors.New("remote down")}
	fast, last := NewMemStore(0), NewMemStore(0)
	s := NewTieredStore(fast, first, second, last)

	k := KeyOf("failing")
	if err := s.Put(k, []byte("v")); err != first.err {
		t.Fatalf("Put = %v, want the first failing tier's %v", err, first.err)
	}
	for i, tier := range []*MemStore{fast, last} {
		if _, ok := tier.Get(k); !ok {
			t.Fatalf("working tier %d missing the value after a failed Put", i)
		}
	}
	if st := s.Stats(); st.Puts != 0 || st.Errors != 2 {
		t.Fatalf("stack stats = %+v; want no put and both tiers' errors", st)
	}
}

// TestTieredFaultyRemoteDegrades stacks memory over a remote that is
// serving 500s: Put reports the remote's failure, reads keep working
// out of the memory tier, and the failures count in the aggregated
// Errors counter.
func TestTieredFaultyRemoteDegrades(t *testing.T) {
	f := newFakeBlobServer(t)
	f.setMode("error")
	remote := NewRemoteStore(f.URL())
	s := NewTieredStore(NewMemStore(0), remote)

	k := KeyOf("degrade")
	if err := s.Put(k, []byte("local")); err == nil {
		t.Fatal("Put through a faulty remote tier returned nil")
	}
	if v, ok := s.Get(k); !ok || !bytes.Equal(v, []byte("local")) {
		t.Fatalf("Get with faulty remote tier = %q, %v", v, ok)
	}
	if st := s.Stats(); st.Errors == 0 {
		t.Fatal("remote failures did not surface in aggregated Errors")
	}
	if st := s.Stats(); st.Hits != 1 || st.Puts != 0 {
		t.Fatalf("stack stats = %+v; want the local hit and no put", st)
	}

	// A miss probes the remote too: still a clean miss, one more error.
	if _, ok := s.Get(KeyOf("absent")); ok {
		t.Fatal("miss through faulty remote returned a value")
	}
	if st := s.Stats(); st.Misses != 1 {
		t.Fatalf("stack stats = %+v; want exactly one miss", st)
	}
}

// TestTieredTierStats pins the per-tier view: tier 0 sees every
// lookup, tier 1 only the ones tier 0 missed, and eviction activity in
// a bounded tier is visible both per-tier and in the aggregate.
func TestTieredTierStats(t *testing.T) {
	fast, slow := NewMemStore(1), NewMemStore(0) // tier 0 holds one entry
	s := NewTieredStore(fast, slow)

	k1, k2 := KeyOf("t1"), KeyOf("t2")
	if err := s.Put(k1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(k2, []byte("b")); err != nil { // evicts k1 from tier 0
		t.Fatal(err)
	}
	if v, ok := s.Get(k1); !ok || !bytes.Equal(v, []byte("a")) { // served by tier 1
		t.Fatalf("Get(k1) = %q, %v", v, ok)
	}

	tiers := s.TierStats()
	if len(tiers) != 2 {
		t.Fatalf("TierStats len = %d, want 2", len(tiers))
	}
	if tiers[0].Misses == 0 {
		t.Fatal("tier 0 recorded no miss for the evicted key")
	}
	if tiers[1].Hits == 0 {
		t.Fatal("tier 1 recorded no hit for the evicted key")
	}
	if tiers[0].Evictions == 0 {
		t.Fatal("bounded tier recorded no eviction")
	}
	if st := s.Stats(); st.Evictions != tiers[0].Evictions+tiers[1].Evictions {
		t.Fatalf("aggregate evictions %d != sum of tiers", st.Evictions)
	}
}

// TestTieredSingleTier pins that a one-tier stack is legal and behaves
// as that store plus counters.
func TestTieredSingleTier(t *testing.T) {
	s := NewTieredStore(NewMemStore(0))
	k := KeyOf("single")
	if err := s.Put(k, []byte("v")); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Get(k); !ok || !bytes.Equal(v, []byte("v")) {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	if st := s.Stats(); st.Hits != 1 || st.Puts != 1 || st.PutBytes != 1 {
		t.Fatalf("stats = %+v", st)
	}
}
