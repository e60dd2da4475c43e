package summary

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

// This file is the Store conformance suite: every implementation —
// unbounded memory, bounded memory, disk, tiered stacks, and the
// remote HTTP client — runs the same battery, so a new store (or a
// changed one) is held to the shared contract: round-trip fidelity,
// exact access counters, and safety under concurrent put/get
// (scripts/check.sh runs this under -race).

// storeVariants enumerates the implementations under test. The bounded
// variant's cap exceeds every key count the shared battery uses, so
// eviction never interferes here; eviction semantics get their own
// test below.
func storeVariants() map[string]func(t *testing.T) Store {
	return map[string]func(t *testing.T) Store{
		"memory":  func(t *testing.T) Store { return NewMemStore(0) },
		"bounded": func(t *testing.T) Store { return NewMemStore(4096) },
		"disk": func(t *testing.T) Store {
			s, err := NewDiskStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		"tiered": func(t *testing.T) Store {
			return NewTieredStore(NewMemStore(0), NewMemStore(0))
		},
		"tiered-disk": func(t *testing.T) Store {
			d, err := NewDiskStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return NewTieredStore(NewMemStore(0), d)
		},
		"remote": func(t *testing.T) Store {
			return NewRemoteStore(newFakeBlobServer(t).URL())
		},
		"tiered-remote": func(t *testing.T) Store {
			return NewTieredStore(NewMemStore(0), NewRemoteStore(newFakeBlobServer(t).URL()))
		},
	}
}

func TestStoreConformance(t *testing.T) {
	for name, mk := range storeVariants() {
		t.Run(name, func(t *testing.T) {
			t.Run("RoundTrip", func(t *testing.T) { testStoreRoundTrip(t, mk(t)) })
			t.Run("Counters", func(t *testing.T) { testStoreCounters(t, mk(t)) })
			t.Run("Concurrent", func(t *testing.T) { testStoreConcurrent(t, mk(t)) })
		})
	}
}

func testStoreRoundTrip(t *testing.T, s Store) {
	k := KeyOf("roundtrip")
	if _, ok := s.Get(k); ok {
		t.Fatal("fresh store returned a value")
	}
	if err := s.Put(k, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Get(k); !ok || !bytes.Equal(v, []byte("v1")) {
		t.Fatalf("got %q, %v; want \"v1\", true", v, ok)
	}
	// Overwrite under the same key wins.
	if err := s.Put(k, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Get(k); !ok || !bytes.Equal(v, []byte("v2")) {
		t.Fatalf("after overwrite got %q, %v; want \"v2\", true", v, ok)
	}
	// An empty value is a value, not a miss.
	ke := KeyOf("empty")
	if err := s.Put(ke, nil); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Get(ke); !ok || len(v) != 0 {
		t.Fatalf("empty value got %q, %v; want \"\", true", v, ok)
	}
}

func testStoreCounters(t *testing.T, s Store) {
	a, b := KeyOf("a"), KeyOf("b")
	if err := s.Put(a, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(b, []byte("y")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(a, []byte("z")); err != nil { // overwrite still counts
		t.Fatal(err)
	}
	s.Get(a)
	s.Get(b)
	s.Get(KeyOf("missing"))
	s.Get(KeyOf("missing too"))
	s.Get(KeyOf("still missing"))
	want := StoreStats{Hits: 2, Misses: 3, Puts: 3, PutBytes: 3, Evictions: 0}
	if got := s.Stats(); got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
}

func testStoreConcurrent(t *testing.T, s Store) {
	const goroutines, keys = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine owns a key range: put them all, then read
			// them all back (guaranteed hits), plus one guaranteed miss.
			for i := 0; i < keys; i++ {
				k := KeyOf("concurrent", fmt.Sprint(g), fmt.Sprint(i))
				if err := s.Put(k, []byte{byte(g), byte(i)}); err != nil {
					t.Error(err)
				}
			}
			for i := 0; i < keys; i++ {
				k := KeyOf("concurrent", fmt.Sprint(g), fmt.Sprint(i))
				v, ok := s.Get(k)
				if !ok || !bytes.Equal(v, []byte{byte(g), byte(i)}) {
					t.Errorf("goroutine %d key %d: got %v, %v", g, i, v, ok)
				}
			}
			s.Get(KeyOf("never put", fmt.Sprint(g)))
		}(g)
	}
	wg.Wait()
	want := StoreStats{
		Hits:     goroutines * keys,
		Misses:   goroutines,
		Puts:     goroutines * keys,
		PutBytes: goroutines * keys * 2,
	}
	if got := s.Stats(); got != want {
		t.Fatalf("stats after concurrent traffic = %+v, want %+v", got, want)
	}
}

// TestBoundedStoreEvictionOrder pins the bounded MemStore's LRU
// discipline: inserting past the cap evicts the least recently *used*
// entry — a read refreshes recency, and overwriting an existing key
// promotes it rather than inserting.
func TestBoundedStoreEvictionOrder(t *testing.T) {
	s := NewMemStore(3)
	k := func(i int) Key { return KeyOf("evict", fmt.Sprint(i)) }
	for i := 1; i <= 3; i++ { // recency (LRU→MRU): 1, 2, 3
		if err := s.Put(k(i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put(k(1), []byte("updated")); err != nil { // promotes: 2, 3, 1
		t.Fatal(err)
	}
	if st := s.Stats(); st.Evictions != 0 {
		t.Fatalf("overwrite evicted: %+v", st)
	}
	if _, ok := s.Get(k(2)); !ok { // promotes: 3, 1, 2
		t.Fatal("entry 2 missing before eviction")
	}

	if err := s.Put(k(4), []byte{4}); err != nil { // evicts k3, the LRU
		t.Fatal(err)
	}
	if _, ok := s.Get(k(3)); ok {
		t.Error("least recently used entry survived eviction")
	}
	if v, ok := s.Get(k(1)); !ok || string(v) != "updated" {
		t.Errorf("overwritten entry: got %q, %v; want \"updated\", true", v, ok)
	}
	for _, i := range []int{2, 4} { // recency now: 1, 2, 4
		if _, ok := s.Get(k(i)); !ok {
			t.Errorf("entry %d evicted out of order", i)
		}
	}

	if err := s.Put(k(5), []byte{5}); err != nil { // evicts k1 next
		t.Fatal(err)
	}
	if _, ok := s.Get(k(1)); ok {
		t.Error("second least recently used entry survived eviction")
	}
	if _, ok := s.Get(k(2)); !ok {
		t.Error("entry 2 evicted out of order")
	}
	if st := s.Stats(); st.Evictions != 2 || s.Len() != 3 {
		t.Fatalf("evictions = %d, len = %d; want 2, 3", st.Evictions, s.Len())
	}
}
