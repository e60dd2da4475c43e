package fleet_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"ipcp/internal/fleet"
	"ipcp/internal/server"
	"ipcp/internal/server/client"
	"ipcp/internal/suite"
)

// BenchmarkFleetBatchThroughput drives /v1/batch through the full
// routing stack — edge decode, rendezvous dispatch fan-out across two
// in-process worker shards, NDJSON streaming — with a fixed batch of
// distinct program lineages per operation. Beyond ns/op it reports
// per-item req/s and the p50/p99 batch latencies.
func BenchmarkFleetBatchThroughput(b *testing.B) {
	const batchItems = 8
	tw := &testWorkers{cfg: server.Config{Workers: runtime.GOMAXPROCS(0)}, handles: map[int]*fleet.WorkerHandle{}}
	fl, err := fleet.New(fleet.Config{Workers: 2, Start: tw.start})
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	if err := fl.Start(ctx); err != nil {
		cancel()
		b.Fatal(err)
	}
	cancel()
	ts := httptest.NewServer(fl.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		fl.Shutdown(ctx)
	}()

	gen := suite.Random(1, 6)
	req := server.BatchRequest{Config: server.ConfigOf(e2eConfig)}
	for i := 0; i < batchItems; i++ {
		req.Items = append(req.Items, server.BatchItem{
			Source:  gen.Source,
			Program: fmt.Sprintf("bench-batch-%d", i),
		})
	}

	var (
		mu  sync.Mutex
		lat []time.Duration
	)
	start := time.Now()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		c := client.New(ts.URL)
		var local []time.Duration
		for pb.Next() {
			t0 := time.Now()
			results, err := c.Batch(context.Background(), req)
			if err != nil {
				b.Error(err)
				return
			}
			for _, res := range results {
				if !res.OK() {
					b.Errorf("item %d: status %d (%s)", res.Index, res.Status, res.Error)
					return
				}
			}
			local = append(local, time.Since(t0))
		}
		mu.Lock()
		lat = append(lat, local...)
		mu.Unlock()
	})
	elapsed := time.Since(start)
	b.StopTimer()

	if len(lat) == 0 {
		return
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	quantile := func(q float64) float64 {
		i := int(q * float64(len(lat)-1))
		return float64(lat[i].Nanoseconds())
	}
	b.ReportMetric(float64(len(lat)*batchItems)/elapsed.Seconds(), "req/s")
	b.ReportMetric(quantile(0.50), "p50-ns")
	b.ReportMetric(quantile(0.99), "p99-ns")
}
