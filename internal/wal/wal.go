// Package wal is what remains of the write-ahead journal that once
// stood in front of the summary store's asynchronous write-backs. The
// store now writes every tier before a Put returns, so nothing is left
// to journal or replay. These inert declarations keep old callers
// compiling; see DESIGN.md, "Crash durability".
//
// Deprecated: use summary.NewTieredStore, whose Put is write-through.
package wal

// SyncPolicy once said when a journal segment was fsynced.
//
// Deprecated: summary.DiskStore.Sync fsyncs each blob before its rename.
type SyncPolicy int

// SyncRotate was the default policy.
//
// Deprecated: nothing is journaled.
const SyncRotate SyncPolicy = 0

// Options configures nothing.
//
// Deprecated: nothing is journaled.
type Options struct {
	Sync SyncPolicy
}

// Journal journals nothing.
//
// Deprecated: nothing is journaled.
type Journal struct{}

// Open touches nothing and returns an inert journal.
//
// Deprecated: nothing is journaled.
func Open(string, Options) (*Journal, error) { return &Journal{}, nil }

// Close does nothing.
//
// Deprecated: nothing is journaled.
func (*Journal) Close() error { return nil }
