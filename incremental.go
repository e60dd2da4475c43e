package ipcp

import (
	"context"
	"encoding/hex"
	"fmt"

	"ipcp/internal/core"
	"ipcp/internal/incr"
	"ipcp/internal/summary"
)

// This file is the public surface of the program database: a summary
// cache (in memory or on disk), per-run snapshots, and
// Program.AnalyzeIncremental, which reuses the summaries of procedures
// an edit did not touch. See DESIGN.md, "Summary store and incremental
// re-analysis".

// SummaryCache is a content-addressed store of per-procedure analysis
// summaries, shared across AnalyzeIncremental runs (and, for a cache
// opened by NewDurableCache, across processes). Safe for concurrent
// use.
type SummaryCache struct {
	store summary.Store
}

// NewMemoryCache returns an unbounded in-memory summary cache.
func NewMemoryCache() *SummaryCache {
	return &SummaryCache{store: summary.NewMemStore(0)}
}

// NewBoundedMemoryCache returns an in-memory cache holding at most
// maxEntries summaries; older entries are evicted past the bound.
func NewBoundedMemoryCache(maxEntries int) *SummaryCache {
	return &SummaryCache{store: summary.NewMemStore(maxEntries)}
}

// NewRemoteCache returns a cache backed by a blob service speaking the
// content-addressed protocol an ipcpd daemon serves at /v1/blob/ — the
// library form of cmd/ipcp's -remote-cache. Remote failures (network
// errors, 5xx, corrupted transfers) never fail an analysis: they count
// into CacheStats.Errors and degrade to recomputation.
func NewRemoteCache(baseURL string) *SummaryCache {
	return &SummaryCache{store: summary.NewRemoteStore(baseURL)}
}

// NewTieredCache stacks caches fastest-first into one read-through
// hierarchy — typically memory in front of disk in front of a remote.
// Lookups probe in order and back-fill the faster tiers on a hit; a
// write lands in every tier before it returns. Content-addressed keys
// make the tiers coherent by construction.
func NewTieredCache(tiers ...*SummaryCache) *SummaryCache {
	stores := make([]summary.Store, len(tiers))
	for i, t := range tiers {
		stores[i] = t.store
	}
	return &SummaryCache{store: summary.NewTieredStore(stores...)}
}

// CacheStats counts a cache's traffic since it was opened.
type CacheStats struct {
	Hits       int64 // lookups that found a summary
	Misses     int64 // lookups that found nothing
	Puts       int64 // summary blobs written
	BytesSaved int64 // bytes written by those puts
	Evictions  int64 // summaries dropped by a bounded cache
	Errors     int64 // I/O or remote failures, distinct from misses
}

func cacheStatsOf(s summary.StoreStats) CacheStats {
	return CacheStats{
		Hits: s.Hits, Misses: s.Misses,
		Puts: s.Puts, BytesSaved: s.PutBytes,
		Evictions: s.Evictions, Errors: s.Errors,
	}
}

// Stats returns the cache's accumulated counters.
func (c *SummaryCache) Stats() CacheStats { return cacheStatsOf(c.store.Stats()) }

// TierStats returns per-tier counters for a cache built with
// NewTieredCache, fastest tier first; for any other cache it returns
// the cache's own stats as a single tier.
func (c *SummaryCache) TierStats() []CacheStats {
	if ts, ok := c.store.(*summary.TieredStore); ok {
		inner := ts.TierStats()
		out := make([]CacheStats, len(inner))
		for i, s := range inner {
			out[i] = cacheStatsOf(s)
		}
		return out
	}
	return []CacheStats{c.Stats()}
}

// String renders the counters in one line (the -trace-passes cache
// stats row).
func (s CacheStats) String() string {
	return fmt.Sprintf("summary cache: %d hits, %d misses, %d puts (%d bytes), %d evictions, %d errors",
		s.Hits, s.Misses, s.Puts, s.BytesSaved, s.Evictions, s.Errors)
}

// GetBlob reads one raw blob by its 64-hex content address — the
// serving side of the remote-cache protocol (ipcpd's blob endpoint
// calls it). The bool reports presence; the error flags a malformed
// key.
func (c *SummaryCache) GetBlob(hexKey string) ([]byte, bool, error) {
	k, err := parseBlobKey(hexKey)
	if err != nil {
		return nil, false, err
	}
	v, ok := c.store.Get(k)
	return v, ok, nil
}

// PutBlob stores one raw blob under its 64-hex content address.
func (c *SummaryCache) PutBlob(hexKey string, data []byte) error {
	k, err := parseBlobKey(hexKey)
	if err != nil {
		return err
	}
	return c.store.Put(k, data)
}

func parseBlobKey(hexKey string) (summary.Key, error) {
	var k summary.Key
	raw, err := hex.DecodeString(hexKey)
	if err != nil || len(raw) != len(k) {
		return k, fmt.Errorf("ipcp: blob key must be %d hex characters", 2*len(k))
	}
	copy(k[:], raw)
	return k, nil
}

// Snapshot is the index one AnalyzeIncremental run leaves behind: the
// per-procedure fingerprints and store keys a later run diffs against.
// Snapshots are immutable and may seed any number of later runs.
type Snapshot struct {
	snap  *summary.Snapshot
	cache *SummaryCache
}

// Procedures returns the number of procedures the snapshot stamps.
func (s *Snapshot) Procedures() int { return len(s.snap.Procs) }

// Save writes the snapshot to a file (the companion of a disk cache).
// It leaves the file untouched when it already holds this snapshot, and
// otherwise replaces it atomically (a synced temporary file renamed
// over it), so a crash leaves the old snapshot or the new one.
func (s *Snapshot) Save(path string) error {
	if err := summary.SaveSnapshotFile(path, s.snap); err != nil {
		return fmt.Errorf("ipcp: %w", err)
	}
	return nil
}

// LoadSnapshot reads a snapshot written by Save and attaches it to the
// cache holding its summaries. A file that does not decode as one
// snapshot, such as a delta chain an older release wrote, is an error;
// a run without a snapshot still hits every stored summary by its
// content key, and its Save replaces the file.
func LoadSnapshot(path string, cache *SummaryCache) (*Snapshot, error) {
	snap, err := summary.LoadSnapshotFile(path)
	if err != nil {
		return nil, fmt.Errorf("ipcp: %w", err)
	}
	return &Snapshot{snap: snap, cache: cache}, nil
}

// CacheGCStats reports one CacheGC sweep over a disk cache directory.
type CacheGCStats = summary.GCStats

// CacheGC garbage-collects a disk cache directory (the -cache-dir of
// cmd/ipcp, or an ipcpd daemon's cache): summaries no snapshot
// references are deleted, and if the referenced ones still exceed
// budgetBytes (0 = unbounded) the coldest are deleted until they fit.
// The live set is the union of every snapshot file saved in the
// directory and the extra in-memory snapshots passed in (a resident
// server passes its current ones). Collecting a live summary is always
// sound — it merely costs a future recomputation — so CacheGC is safe
// to run concurrently with analyses using the same directory.
func CacheGC(dir string, budgetBytes int64, live ...*Snapshot) (CacheGCStats, error) {
	var extra []summary.Key
	for _, s := range live {
		if s != nil && s.snap != nil {
			extra = append(extra, s.snap.Keys()...)
		}
	}
	return summary.GCDir(dir, extra, budgetBytes)
}

// FlavorCacheKey fingerprints every configuration bit stored summaries
// depend on (jump-function flavor, return JFs, MOD, codec version) —
// useful for naming snapshot files per configuration, as cmd/ipcp
// does. Two configs with equal FlavorCacheKey store and hit identical
// entries.
func FlavorCacheKey(cfg Config) string {
	return incr.ConfigKey(cfg.internal())
}

// IncrementalStats describes how an incremental run split the program.
type IncrementalStats struct {
	// TotalProcedures is the procedure count; Reanalyzed of them had
	// their summaries rebuilt, Reused ran on cached ones.
	TotalProcedures int
	Reanalyzed      int
	Reused          int

	// CacheHits and CacheMisses count this run's cache lookups — one
	// per candidate procedure: every procedure the invalidation
	// analysis kept when a comparable snapshot exists, or every
	// procedure at all on a first run (content-addressed keys make hits
	// from any prior run sound, so a fresh run against a warm shared
	// cache starts at full reuse). A hit means the procedure's record
	// was present and bound, and the procedure ran on it.
	CacheHits   int
	CacheMisses int

	// WorklistVisited counts the work items the stage-3 solve visited.
	// Stage 3 solves every run from the initial VAL sets, so it equals
	// the Report's SolverPasses.
	WorklistVisited int64

	// StoreErr is the first summary this run failed to write to the
	// cache (nil when every write landed). A failed write never changes
	// the analysis; it only costs a later run a recomputation. cmd/ipcp
	// prints it on stderr and ipcpd logs it; it does not travel over
	// the wire.
	StoreErr error `json:"-"`
}

// HitRate returns the fraction of this run's cache lookups that hit,
// in [0,1]; a run with no lookups (a first run) reports 0.
func (s *IncrementalStats) HitRate() float64 {
	lookups := s.CacheHits + s.CacheMisses
	if lookups == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(lookups)
}

// AnalyzeIncremental runs interprocedural constant propagation under
// cfg, reusing stored summaries for every procedure that prev proves
// unchanged — the changed procedures, plus everything reachable
// backward through the call graph from them, are re-analyzed; the rest
// bind their cached jump functions and MOD/REF sets straight into the
// solver. The returned Report is reflect.DeepEqual to Analyze(cfg)
// apart from the Incremental field (the determinism suite proves it
// over random edit sequences), and the returned Snapshot seeds the
// next run.
//
// prev may be nil (first run: all procedures analyzed and cached).
// cache may be nil, in which case prev's cache is used, or a fresh
// in-memory cache when there is no prev either.
func (p *Program) AnalyzeIncremental(cfg Config, prev *Snapshot, cache *SummaryCache) (*Report, *Snapshot) {
	rep, snap, err := p.analyzeIncremental(cfg.internal(), cfg, prev, cache)
	if err != nil {
		// Only a Cancel hook can fail, and internal() never sets one.
		panic("ipcp: AnalyzeIncremental: " + err.Error())
	}
	return rep, snap
}

// AnalyzeIncrementalContext is AnalyzeIncremental under a context:
// cancellation and deadline expiry abandon the run with an error
// wrapping ErrCanceled, leaving prev and the cache untouched (stored
// summaries are content-addressed, so a partially warmed cache is
// still sound).
func (p *Program) AnalyzeIncrementalContext(ctx context.Context, cfg Config, prev *Snapshot, cache *SummaryCache) (*Report, *Snapshot, error) {
	icfg := cfg.internal()
	icfg.Cancel = cancelHook(ctx)
	return p.analyzeIncremental(icfg, cfg, prev, cache)
}

func (p *Program) analyzeIncremental(icfg core.Config, cfg Config, prev *Snapshot, cache *SummaryCache) (*Report, *Snapshot, error) {
	if cache == nil {
		if prev != nil && prev.cache != nil {
			cache = prev.cache
		} else {
			cache = NewMemoryCache()
		}
	}
	var prevSnap *summary.Snapshot
	if prev != nil {
		prevSnap = prev.snap
	}
	eng := incr.NewEngine(cache.store)
	res, snap, st, err := eng.Analyze(p.sp, icfg, prevSnap)
	if err != nil {
		return nil, nil, err
	}
	rep := buildReport(cfg, res)
	rep.Incremental = &IncrementalStats{
		TotalProcedures: st.TotalProcs,
		Reanalyzed:      st.Reanalyzed,
		Reused:          st.Reused,
		CacheHits:       st.Hits,
		CacheMisses:     st.Misses,
		WorklistVisited: st.WorklistVisited,
		StoreErr:        st.StoreErr,
	}
	return rep, &Snapshot{snap: snap, cache: cache}, nil
}
