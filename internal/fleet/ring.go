package fleet

import (
	"hash/fnv"
	"io"

	"ipcp"
	"ipcp/internal/server"
)

// This file implements the fleet's routing function: rendezvous
// (highest-random-weight) hashing of a request's lineage key over the
// healthy shards. Rendezvous hashing gives the two properties the
// fleet's warm state depends on: the same lineage always lands on the
// same shard while the healthy set is stable (so a lineage's resident
// snapshot and cached summaries accumulate on exactly one worker),
// and when a shard goes down only *its* lineages move — everyone
// else's placement, and therefore their warm caches, are untouched.

// score is the rendezvous weight of (key, shard): a 64-bit FNV-1a hash
// over the key and the shard index.
func score(key string, shard int) uint64 {
	h := fnv.New64a()
	io.WriteString(h, key)
	h.Write([]byte{0, byte(shard), byte(shard >> 8), byte(shard >> 16), byte(shard >> 24)})
	return h.Sum64()
}

// owner returns the member of alive with the highest score for key, or
// -1 when alive is empty. Ties break toward the lowest shard index so
// the choice is total.
func owner(key string, alive []int) int {
	best, bestScore := -1, uint64(0)
	for _, s := range alive {
		sc := score(key, s)
		if best == -1 || sc > bestScore || (sc == bestScore && s < best) {
			best, bestScore = s, sc
		}
	}
	return best
}

// analyzeKey is the routing key of an analyze/transform/batch-item
// request: the same lineage string the worker keys its resident
// snapshot on, so stickiness at the router is exactly snapshot
// residency at the shard.
func analyzeKey(program string, cfg ipcp.Config) string {
	return ipcp.FlavorCacheKey(cfg) + "\x00" + program
}

// matrixKey routes GET /v1/matrix by program name: a matrix sweep has
// no lineage, but pinning it to one shard keeps its coalescing and any
// generated-program caching local.
func matrixKey(program string) string {
	return "matrix\x00" + program
}

// RouteAnalyze predicts which of n shards owns the analyze lineage of
// (program, cfg) when every shard is healthy — exported so tests and
// operational tooling can place programs without a running fleet.
func RouteAnalyze(program string, cfg ipcp.Config, n int) int {
	alive := make([]int, n)
	for i := range alive {
		alive[i] = i
	}
	return owner(analyzeKey(program, cfg), alive)
}

// RouteAnalyzeWire is RouteAnalyze over a wire-format configuration.
func RouteAnalyzeWire(program string, cfg server.ConfigRequest, n int) (int, error) {
	c, err := cfg.Config()
	if err != nil {
		return -1, err
	}
	return RouteAnalyze(program, c, n), nil
}
