package summary

import (
	"container/list"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// Store is a content-addressed blob store: encoded summaries keyed by
// the Key that fingerprints everything they depend on. Because a key
// change *is* the invalidation (a stale entry is simply never asked
// for again), a Store needs no delete operation — only bounded stores
// evict. Implementations are safe for concurrent use.
type Store interface {
	// Get returns the value stored under k.
	Get(k Key) ([]byte, bool)

	// Put stores v under k, overwriting any previous value. Failures
	// (a full disk) are reported but non-fatal: the store is a cache,
	// and a missed Put only costs a future recomputation.
	Put(k Key, v []byte) error

	// Stats returns the access counters accumulated so far.
	Stats() StoreStats
}

// StoreStats counts store traffic.
type StoreStats struct {
	Hits      int64 // Gets that found a value
	Misses    int64 // Gets that found nothing stored
	Puts      int64 // successful Puts
	PutBytes  int64 // bytes written by successful Puts
	Evictions int64 // entries dropped by a bounded MemStore
	Errors    int64 // I/O or protocol failures (distinct from misses)
}

// counters is the shared atomic tally behind the stores.
type counters struct {
	hits, misses, puts, putBytes, evictions, errors atomic.Int64
}

func (c *counters) stats() StoreStats {
	return StoreStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Puts:      c.puts.Load(),
		PutBytes:  c.putBytes.Load(),
		Evictions: c.evictions.Load(),
		Errors:    c.errors.Load(),
	}
}

// ---------------------------------------------------------------------------
// In-memory store

// MemStore is an in-memory Store, optionally bounded: when maxEntries
// is positive, inserting past the bound evicts the least recently used
// entry — Get and an overwriting Put both count as use, so the hot
// working set survives a sweep of cold lookups.
type MemStore struct {
	mu         sync.Mutex
	maxEntries int
	elems      map[Key]*list.Element
	lru        *list.List // front = least recently used
	counters
}

// memEntry is one resident key/value pair, owned by its list element.
type memEntry struct {
	key Key
	val []byte
}

// NewMemStore returns an in-memory store holding at most maxEntries
// values (0 = unbounded).
func NewMemStore(maxEntries int) *MemStore {
	return &MemStore{maxEntries: maxEntries, elems: make(map[Key]*list.Element), lru: list.New()}
}

// Get implements Store. A hit promotes the entry to most recently
// used.
func (s *MemStore) Get(k Key) ([]byte, bool) {
	s.mu.Lock()
	el, ok := s.elems[k]
	var v []byte
	if ok {
		s.lru.MoveToBack(el)
		v = el.Value.(*memEntry).val
	}
	s.mu.Unlock()
	if ok {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return v, ok
}

// Put implements Store. Overwriting an existing key promotes it; only
// a genuinely new key can push the store past its bound and evict the
// least recently used entry.
func (s *MemStore) Put(k Key, v []byte) error {
	s.mu.Lock()
	if el, exists := s.elems[k]; exists {
		el.Value.(*memEntry).val = v
		s.lru.MoveToBack(el)
	} else {
		s.elems[k] = s.lru.PushBack(&memEntry{key: k, val: v})
		if s.maxEntries > 0 {
			for s.lru.Len() > s.maxEntries {
				victim := s.lru.Remove(s.lru.Front()).(*memEntry)
				delete(s.elems, victim.key)
				s.evictions.Add(1)
			}
		}
	}
	s.mu.Unlock()
	s.puts.Add(1)
	s.putBytes.Add(int64(len(v)))
	return nil
}

// Stats implements Store.
func (s *MemStore) Stats() StoreStats { return s.stats() }

// Len returns the number of stored entries.
func (s *MemStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.elems)
}

// ---------------------------------------------------------------------------
// Disk store

// DiskStore persists values as one file per key under a directory
// (cmd/ipcp -cache-dir), so summaries survive across processes. Writes
// go through a temp file and a rename, keeping concurrent readers from
// ever seeing a torn value. A Put that returned nil has finished its
// write and rename, so the value survives the process being killed.
type DiskStore struct {
	dir string

	// Sync, when set before the store is first used, fsyncs each value
	// before the rename that publishes it, so an acknowledged Put also
	// survives power loss, at the cost of one fsync per Put.
	Sync bool

	counters
}

// NewDiskStore opens (creating if needed) a disk store rooted at dir.
func NewDiskStore(dir string) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("summary: cache dir: %w", err)
	}
	return &DiskStore{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *DiskStore) Dir() string { return s.dir }

func (s *DiskStore) path(k Key) string {
	return filepath.Join(s.dir, k.String()+".ipcs")
}

// Get implements Store. A missing file is a miss; any other read
// failure (permissions, a dying disk) counts as an error instead, so
// the stats distinguish "nothing stored" from "storage unwell" — both
// degrade to recomputation.
func (s *DiskStore) Get(k Key) ([]byte, bool) {
	data, err := os.ReadFile(s.path(k))
	if err != nil {
		if os.IsNotExist(err) {
			s.misses.Add(1)
		} else {
			s.errors.Add(1)
		}
		return nil, false
	}
	s.hits.Add(1)
	return data, true
}

// Put implements Store.
func (s *DiskStore) Put(k Key, v []byte) error {
	tmp, err := os.CreateTemp(s.dir, "put-*")
	if err != nil {
		s.errors.Add(1)
		return err
	}
	_, err = tmp.Write(v)
	if err == nil && s.Sync {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), s.path(k))
	}
	if err != nil {
		os.Remove(tmp.Name())
		s.errors.Add(1)
		return err
	}
	s.puts.Add(1)
	s.putBytes.Add(int64(len(v)))
	return nil
}

// Stats implements Store.
func (s *DiskStore) Stats() StoreStats { return s.stats() }
