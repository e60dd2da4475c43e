package ipcp

import (
	"fmt"

	"ipcp/internal/summary"
	"ipcp/internal/wal"
)

// This file is the public surface of crash durability: a disk-backed
// cache whose accepted writes survive SIGKILL via a write-ahead
// journal. Snapshot files are replaced atomically by Snapshot.Save. See
// DESIGN.md, "Crash durability".

// DurableCacheOptions configures NewDurableCache.
type DurableCacheOptions struct {
	// Dir is the cache directory (required). It holds the
	// content-addressed blobs, the snapshot files, and the journal's
	// wal-*.wal segments side by side.
	Dir string

	// RemoteURL, when non-empty, adds a remote blob-service tier behind
	// the disk tier (the library form of -remote-cache).
	RemoteURL string

	// MemEntries bounds the in-memory front tier; 0 means unbounded.
	MemEntries int

	// SyncEveryAppend upgrades the journal to fsync each record before
	// the put is acknowledged — durable against power loss, not just
	// process death, at a large throughput cost. The default syncs on
	// segment rotation and close, which loses nothing to SIGKILL.
	SyncEveryAppend bool
}

// WALReplayStats counts what boot-time journal recovery did.
type WALReplayStats struct {
	Replayed int // records re-put into the cache
	Skipped  int // records whose key was already present
	Corrupt  int // torn or corrupt records dropped
}

// NewDurableCache opens a crash-durable tiered cache: memory in front
// of disk (in front of a remote when RemoteURL is set), with every
// accepted put journaled to a write-ahead log before it is
// acknowledged. Journal records retire only once the slower tiers have
// confirmed the write-back, so a crash — SIGKILL included — at any
// point loses no acknowledged put: the next NewDurableCache on the
// same directory replays the survivors, and the returned stats say how
// many. Callers should Flush (and check FlushErr, or just Close) at
// shutdown; an unclean exit merely means the next open replays more.
func NewDurableCache(opts DurableCacheOptions) (*SummaryCache, WALReplayStats, error) {
	var rs WALReplayStats
	if opts.Dir == "" {
		return nil, rs, fmt.Errorf("ipcp: NewDurableCache needs a directory")
	}
	disk, err := summary.NewDiskStore(opts.Dir)
	if err != nil {
		return nil, rs, fmt.Errorf("ipcp: %w", err)
	}
	tiers := []summary.Store{summary.NewMemStore(opts.MemEntries), disk}
	if opts.RemoteURL != "" {
		tiers = append(tiers, summary.NewRemoteStore(opts.RemoteURL))
	}
	sync := wal.SyncRotate
	if opts.SyncEveryAppend {
		sync = wal.SyncAlways
	}
	j, err := wal.Open(opts.Dir, wal.Options{Sync: sync})
	if err != nil {
		return nil, rs, fmt.Errorf("ipcp: %w", err)
	}
	store := summary.NewDurableTieredStore(j, tiers...)
	srs, err := summary.RecoverJournal(j, store)
	if err != nil {
		// Replay aborted: the journal keeps its segments for the next
		// boot, and this one does not open.
		//lint:ignore codecerr recovery already failed; Close is best-effort cleanup and the replay error is the one reported
		j.Close()
		return nil, rs, fmt.Errorf("ipcp: wal recovery: %w", err)
	}
	rs = WALReplayStats{Replayed: srs.Replayed, Skipped: srs.Skipped, Corrupt: srs.Corrupt}
	return &SummaryCache{store: store}, rs, nil
}

// FlushErr returns the first error any of the cache's asynchronous
// operations — background write-backs, journal appends — has hit, or
// nil. Put cannot return those errors (they happen after it
// acknowledged), so shutdown paths check here instead of silently
// dropping them. Non-tiered caches have no asynchronous work and
// always return nil.
func (c *SummaryCache) FlushErr() error {
	if ts, ok := c.store.(*summary.TieredStore); ok {
		return ts.FlushErr()
	}
	return nil
}

// Close flushes pending write-backs, retires the journal segments
// whose write-backs confirmed, closes the journal, and returns
// FlushErr — so a logged Close surfaces any write the shutdown is
// abandoning. Unconfirmed journal records stay on disk for the next
// open's recovery. Close is a no-op (nil) on caches without
// asynchronous work.
func (c *SummaryCache) Close() error {
	if ts, ok := c.store.(*summary.TieredStore); ok {
		return ts.Close()
	}
	return nil
}

// SnapshotChainStats reports one SaveChain write: the bytes it wrote
// (AppendedBytes, 0 when the file already held the snapshot) and the
// size of the snapshot's encoding (FullBytes).
//
// Deprecated: use Snapshot.Save.
type SnapshotChainStats = summary.ChainStats

// SaveChain is Save plus the sizes it wrote.
//
// Deprecated: use Save, which writes the same file.
func (s *Snapshot) SaveChain(path string) (SnapshotChainStats, error) {
	st, err := summary.SaveSnapshotChain(path, s.snap, summary.DeltaPolicy{})
	if err != nil {
		return st, fmt.Errorf("ipcp: %w", err)
	}
	return st, nil
}
