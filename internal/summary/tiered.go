package summary

import "ipcp/internal/wal"

// TieredStore composes stores into a cache hierarchy — typically
// memory in front of disk in front of a remote — with read-through
// fill and write-through puts. Because every key is a complete content
// address (the key change *is* the invalidation), tiers never need
// coherence traffic: a value under a key is the same value in every
// tier that has it, so a fill may be lost without ever serving a
// wrong answer.
type TieredStore struct {
	tiers []Store
	counters
}

// NewTieredStore stacks stores fastest-first. Get probes in order and
// back-fills every faster tier on a hit; Put writes every tier before
// it returns. A single tier is legal (the stack degenerates to that
// store plus counters), zero tiers is a programming error.
func NewTieredStore(tiers ...Store) *TieredStore {
	if len(tiers) == 0 {
		panic("summary: NewTieredStore needs at least one tier")
	}
	return &TieredStore{tiers: tiers}
}

// NewDurableTieredStore is NewTieredStore; the journal is ignored.
//
// Deprecated: use NewTieredStore, whose Put is write-through.
func NewDurableTieredStore(_ *wal.Journal, tiers ...Store) *TieredStore {
	return NewTieredStore(tiers...)
}

// Get implements Store: the first tier that has the value wins, and
// every tier in front of it is filled so the next lookup stops sooner.
func (s *TieredStore) Get(k Key) ([]byte, bool) {
	for i, t := range s.tiers {
		v, ok := t.Get(k)
		if !ok {
			continue
		}
		for j := 0; j < i; j++ {
			// A failed fill only costs the next lookup a deeper probe.
			//lint:ignore codecerr read-through fill is best-effort; the failing tier's own Errors counter records the fault
			_ = s.tiers[j].Put(k, v)
		}
		s.hits.Add(1)
		return v, true
	}
	s.misses.Add(1)
	return nil, false
}

// Put implements Store: it writes every tier, fastest first, before it
// returns, so a nil error means every tier holds v — on disk, a
// finished write and rename; on a remote, the peer's acknowledgment. A
// failing tier does not stop the slower ones; Put returns the first
// failure, and only a Put that returns nil counts in Puts.
func (s *TieredStore) Put(k Key, v []byte) error {
	var first error
	for _, t := range s.tiers {
		if err := t.Put(k, v); err != nil && first == nil {
			first = err
		}
	}
	if first != nil {
		return first
	}
	s.puts.Add(1)
	s.putBytes.Add(int64(len(v)))
	return nil
}

// Close does nothing: Put leaves no work behind.
//
// Deprecated: a TieredStore needs no closing.
func (s *TieredStore) Close() error { return nil }

// ReplayStats is what RecoverJournal returns: always zero.
//
// Deprecated: nothing is journaled.
type ReplayStats struct {
	Replayed int
	Skipped  int
	Corrupt  int
}

// RecoverJournal replays nothing.
//
// Deprecated: nothing is journaled.
func RecoverJournal(*wal.Journal, Store) (ReplayStats, error) { return ReplayStats{}, nil }

// Stats implements Store. The hit/miss/put counters are the stack's
// own (one logical lookup regardless of how many tiers it probed);
// evictions and errors are aggregated from the tiers, since only they
// evict or fail.
func (s *TieredStore) Stats() StoreStats {
	st := s.stats()
	for _, t := range s.tiers {
		ts := t.Stats()
		st.Evictions += ts.Evictions
		st.Errors += ts.Errors
	}
	return st
}

// TierStats returns each tier's own counters, fastest-first. Note the
// traffic a tier sees is shaped by the stack: tier i only sees the
// Gets that missed tiers 0..i-1, plus fills and writes as Puts.
func (s *TieredStore) TierStats() []StoreStats {
	out := make([]StoreStats, len(s.tiers))
	for i, t := range s.tiers {
		out[i] = t.Stats()
	}
	return out
}
