// Command ipcpd is the resident analysis server: a long-running daemon
// that keeps the summary cache and per-program snapshots hot in memory
// and serves interprocedural constant propagation queries over HTTP.
//
// Usage:
//
//	ipcpd [flags]
//
//	-addr :7117            listen address (use :0 for an ephemeral port)
//	-workers N             fleet mode: spawn N worker shards (0 = serve
//	                       in-process, no fleet)
//	-pool N                concurrent analyses per process (0 = one per CPU)
//	-queue N               admitted requests that may wait (0 = 4×pool)
//	-timeout 30s           default per-request deadline
//	-max-timeout 2m        cap on client-requested deadlines
//	-cache-dir DIR         persist the summary cache under DIR
//	                       (fleet mode: each shard under DIR/shard-<i>)
//	-cache-budget BYTES    GC byte budget for the disk cache
//	-gc-interval 10m       sweep the disk cache this often (0 = never)
//	-remote-cache URL      shared remote summary-cache tier (a peer
//	                       ipcpd's /v1/blob endpoint)
//
// With -workers N the process becomes a routing front end: it spawns N
// shared-nothing worker ipcpds on loopback ports, supervises them
// (crash restart with bounded backoff, failover while a shard is
// down), and routes each request to the shard owning its lineage by
// rendezvous hashing, so repeat edits of a program hit the worker
// holding its resident snapshot. Fleet mode adds POST /v1/batch. See
// DESIGN.md ("The analysis fleet").
//
// Endpoints: POST /v1/analyze, POST /v1/transform, POST /v1/batch,
// GET /v1/matrix, GET/PUT /v1/blob/{key} (the remote summary-cache
// tier; single-process only), GET /healthz, GET /readyz, GET /metrics.
// See internal/server for the wire protocol and DESIGN.md ("The
// analysis server") for the design.
//
// SIGINT/SIGTERM drain gracefully: readiness goes false, open requests
// finish (fleet mode forwards the drain to every worker), then the
// process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"ipcp/internal/fleet"
	"ipcp/internal/server"
)

func main() {
	addr := flag.String("addr", ":7117", "listen address")
	workers := flag.Int("workers", 0, "fleet mode: spawn this many worker shards (0 = serve in-process)")
	pool := flag.Int("pool", 0, "concurrent analyses per process (0 = one per CPU)")
	queue := flag.Int("queue", 0, "admission queue depth (0 = 4×pool)")
	timeout := flag.Duration("timeout", 30*time.Second, "default per-request deadline")
	maxTimeout := flag.Duration("max-timeout", 2*time.Minute, "cap on client-requested deadlines")
	cacheDir := flag.String("cache-dir", "", "persist the summary cache under this directory")
	cacheBudget := flag.Int64("cache-budget", 0, "GC byte budget for the disk cache (0 = unreferenced only)")
	gcInterval := flag.Duration("gc-interval", 0, "sweep the disk cache this often (0 = never)")
	remoteCache := flag.String("remote-cache", "", "shared remote summary-cache tier (base URL of a peer ipcpd)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for open requests")
	flag.Parse()

	logger := log.New(os.Stderr, "ipcpd: ", log.LstdFlags)

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatal(err)
	}
	// The exact line scripts/check.sh, the fleet supervisor, and
	// operators parse for the bound address (significant with -addr :0).
	fmt.Printf("ipcpd: listening on %s\n", l.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)

	if *workers > 0 {
		runFleet(l, sig, logger, *workers, *pool, *queue, *timeout, *maxTimeout,
			*cacheDir, *cacheBudget, *gcInterval, *remoteCache, *drainTimeout)
		return
	}

	srv, err := server.New(server.Config{
		Workers:        *pool,
		QueueDepth:     *queue,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		CacheDir:       *cacheDir,
		CacheBudget:    *cacheBudget,
		GCInterval:     *gcInterval,
		RemoteCache:    *remoteCache,
		Log:            logger,
	})
	if err != nil {
		logger.Fatal(err)
	}

	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()

	select {
	case err := <-done:
		if err != nil {
			logger.Fatal(err)
		}
	case s := <-sig:
		logger.Printf("caught %s, draining", s)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			logger.Fatal(err)
		}
		logger.Printf("drained, exiting")
	}
}

// runFleet serves l as a routing front end over n spawned worker
// shards, each this same binary in single-process mode on an ephemeral
// loopback port.
func runFleet(l net.Listener, sig chan os.Signal, logger *log.Logger, n, pool, queue int,
	timeout, maxTimeout time.Duration, cacheDir string, cacheBudget int64,
	gcInterval time.Duration, remoteCache string, drainTimeout time.Duration) {

	bin, err := os.Executable()
	if err != nil {
		logger.Fatal(err)
	}
	args := func(shard int) []string {
		a := []string{
			"-addr", "127.0.0.1:0",
			"-pool", strconv.Itoa(pool),
			"-queue", strconv.Itoa(queue),
			"-timeout", timeout.String(),
			"-max-timeout", maxTimeout.String(),
			"-drain-timeout", drainTimeout.String(),
		}
		if cacheDir != "" {
			// Each shard stores into its own directory, so a crashed
			// worker's replacement finds exactly its shard's puts.
			a = append(a, "-cache-dir", filepath.Join(cacheDir, fmt.Sprintf("shard-%d", shard)))
		}
		if cacheBudget != 0 {
			a = append(a, "-cache-budget", strconv.FormatInt(cacheBudget, 10))
		}
		if gcInterval != 0 {
			a = append(a, "-gc-interval", gcInterval.String())
		}
		if remoteCache != "" {
			a = append(a, "-remote-cache", remoteCache)
		}
		return a
	}

	fl, err := fleet.New(fleet.Config{
		Workers:      n,
		Start:        fleet.ProcessSpawner(bin, args, logger),
		DrainTimeout: drainTimeout,
		Log:          logger,
	})
	if err != nil {
		logger.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	if err := fl.Start(ctx); err != nil {
		cancel()
		logger.Fatal(err)
	}
	cancel()
	logger.Printf("fleet: %d workers ready", n)

	done := make(chan error, 1)
	go func() { done <- fl.Serve(l) }()

	select {
	case err := <-done:
		if err != nil {
			logger.Fatal(err)
		}
	case s := <-sig:
		logger.Printf("caught %s, draining fleet", s)
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := fl.Shutdown(ctx); err != nil {
			logger.Fatal(err)
		}
		logger.Printf("drained, exiting")
	}
}
