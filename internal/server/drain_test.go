package server_test

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"ipcp"
	"ipcp/internal/server"
	"ipcp/internal/server/client"
	"ipcp/internal/suite"
)

// TestServerShutdownFlushesRemoteTier pins the graceful-drain contract
// for the tiered summary store: a server that exits right after
// answering must not drop its summaries. Every put reaches the remote
// tier before it returns, so after the drain a cold machine sharing
// only the remote tier reuses every summary the server computed.
func TestServerShutdownFlushesRemoteTier(t *testing.T) {
	_, base := startBlobServer(t, server.Config{Workers: 1})

	s, err := server.New(server.Config{Workers: 1, RemoteCache: base})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	c := client.New(ts.URL)
	src := suite.Generate("ocean", 2).Source
	if _, err := c.Analyze(context.Background(), server.AnalyzeRequest{
		Source: src, Program: "drain", Config: server.ConfigOf(e2eConfig),
	}); err != nil {
		t.Fatal(err)
	}

	// Drain: nothing is left to flush.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	ts.Close()

	cold := ipcp.NewTieredCache(ipcp.NewMemoryCache(), ipcp.NewRemoteCache(base))
	rep, _ := ipcp.MustLoad(src).AnalyzeIncremental(e2eConfig, nil, cold)
	st := rep.Incremental
	if st.CacheHits != st.TotalProcedures || st.Reanalyzed != 0 {
		t.Fatalf("cold machine should find every summary on the remote tier after drain, got %+v", st)
	}
}
