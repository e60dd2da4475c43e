package ipcp_test

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"ipcp"
	"ipcp/internal/suite"
	"ipcp/internal/summary"
	"ipcp/internal/wal"
)

// Durability benchmark: what a boot-time journal replay costs at a
// real program's cache scale.

// BenchmarkWALReplay measures boot-time recovery: a journal holding
// every summary blob a doduc analysis produced, opened and replayed
// into a fresh store — the work a crashed process adds to its
// successor's startup. wal_replay_ns duplicates ns/op under a stable
// name.
func BenchmarkWALReplay(b *testing.B) {
	donorDir := b.TempDir()
	donor, err := ipcp.NewDiskCache(donorDir)
	if err != nil {
		b.Fatal(err)
	}
	src := suite.Generate("doduc", suite.DefaultScale).Source
	ipcp.MustLoad(src).AnalyzeIncremental(benchCfg, nil, donor)
	type blob struct {
		key     wal.Key
		payload []byte
	}
	var blobs []blob
	entries, err := os.ReadDir(donorDir)
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".ipcs" {
			continue
		}
		raw, err := hex.DecodeString(e.Name()[:len(e.Name())-len(".ipcs")])
		if err != nil || len(raw) != sha256.Size {
			continue
		}
		payload, err := os.ReadFile(filepath.Join(donorDir, e.Name()))
		if err != nil {
			b.Fatal(err)
		}
		var k wal.Key
		copy(k[:], raw)
		blobs = append(blobs, blob{key: k, payload: payload})
	}
	if len(blobs) == 0 {
		b.Fatal("donor run produced no blobs")
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		j, err := wal.Open(dir, wal.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for _, bl := range blobs {
			if _, err := j.Append(bl.key, bl.payload); err != nil {
				b.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()

		j2, err := wal.Open(dir, wal.Options{})
		if err != nil {
			b.Fatal(err)
		}
		store := summary.NewMemStore(0)
		rs, err := summary.RecoverJournal(j2, store)
		if err != nil {
			b.Fatal(err)
		}
		if rs.Replayed != len(blobs) {
			b.Fatalf("replayed %d of %d records", rs.Replayed, len(blobs))
		}
		j2.Close()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "wal_replay_ns")
}
