package ipcp

import (
	"fmt"

	"ipcp/internal/summary"
)

// This file is the public surface of crash durability: a disk-backed
// cache whose every put has reached the disk, and the remote when one
// is set, before it returns, so an acknowledged put survives SIGKILL.
// Snapshot files are replaced atomically by Snapshot.Save. See
// DESIGN.md, "Crash durability".

// DurableCacheOptions configures NewDurableCache.
type DurableCacheOptions struct {
	// Dir is the cache directory (required). It holds the
	// content-addressed blobs and the snapshot files side by side.
	Dir string

	// RemoteURL, when non-empty, adds a remote blob-service tier behind
	// the disk tier (the library form of -remote-cache).
	RemoteURL string

	// MemEntries bounds the in-memory front tier; 0 means unbounded.
	MemEntries int

	// SyncEveryAppend fsyncs each blob before the rename that publishes
	// it, so an acknowledged put survives power loss, not just process
	// death, at the cost of one fsync per put. Off by default: a
	// finished write and rename already survives SIGKILL.
	SyncEveryAppend bool
}

// WALReplayStats is the second result of NewDurableCache: always zero.
//
// Deprecated: nothing is journaled or replayed; every put is on disk
// before it returns.
type WALReplayStats struct {
	Replayed int
	Skipped  int
	Corrupt  int
}

// NewDurableCache opens the summary cache in a directory: memory in
// front of disk, in front of a remote when RemoteURL is set. Every put
// writes every tier before it returns, so a nil error means the blob is
// on disk (and acknowledged by the remote) and a crash, SIGKILL
// included, loses no acknowledged put. A failed write reaches the
// analysis that made it, in its Report's IncrementalStats. The cache
// needs no closing.
func NewDurableCache(opts DurableCacheOptions) (*SummaryCache, WALReplayStats, error) {
	if opts.Dir == "" {
		return nil, WALReplayStats{}, fmt.Errorf("ipcp: NewDurableCache needs a directory")
	}
	disk, err := summary.NewDiskStore(opts.Dir)
	if err != nil {
		return nil, WALReplayStats{}, fmt.Errorf("ipcp: %w", err)
	}
	disk.Sync = opts.SyncEveryAppend
	tiers := []summary.Store{summary.NewMemStore(opts.MemEntries), disk}
	if opts.RemoteURL != "" {
		tiers = append(tiers, summary.NewRemoteStore(opts.RemoteURL))
	}
	return &SummaryCache{store: summary.NewTieredStore(tiers...)}, WALReplayStats{}, nil
}

// Close does nothing: every put has finished before it returns.
//
// Deprecated: a SummaryCache needs no closing.
func (c *SummaryCache) Close() error { return nil }

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
