package server_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ipcp/internal/server"
	"ipcp/internal/server/client"
	"ipcp/internal/suite"
)

// BenchmarkServerThroughput drives the full serving stack — HTTP,
// admission, the worker pool, and warm incremental re-analysis — with
// one client goroutine per GOMAXPROCS, each on its own program lineage
// (so nothing coalesces and every request does real cache traffic).
// Beyond ns/op it reports req/s and the p50/p99 request latencies.
func BenchmarkServerThroughput(b *testing.B) {
	gen := suite.Random(1, 8)
	s, err := server.New(server.Config{Workers: runtime.GOMAXPROCS(0)})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()

	cfg := server.ConfigOf(e2eConfig)
	var (
		id  atomic.Int64
		mu  sync.Mutex
		lat []time.Duration
	)
	start := time.Now()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		c := client.New(ts.URL)
		req := server.AnalyzeRequest{
			Source:  gen.Source,
			Program: fmt.Sprintf("bench-%d", id.Add(1)),
			Config:  cfg,
		}
		var local []time.Duration
		for pb.Next() {
			t0 := time.Now()
			if _, err := c.Analyze(context.Background(), req); err != nil {
				b.Error(err)
				return
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
	b.ReportMetric(float64(len(lat))/elapsed.Seconds(), "req/s")
	b.ReportMetric(quantile(0.50), "p50-ns")
	b.ReportMetric(quantile(0.99), "p99-ns")
}
