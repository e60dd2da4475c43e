package fleet

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// This file implements worker lifecycle: each shard is started through
// the configured StartWorker hook, health-checked via /readyz before
// it joins the routing set, watched for crashes (an unexpected exit
// marks it down, re-routes its lineages to the rendezvous runner-up,
// and respawns it after a bounded exponential backoff), and drained
// gracefully on shutdown (Stop is forwarded — SIGTERM for processes —
// and the supervisor waits for the worker to finish its in-flight
// work before moving on).

// WorkerHandle is one live worker as the supervisor sees it. The
// process spawner and the in-process test harness both produce it.
type WorkerHandle struct {
	// Addr is the worker's listen address ("host:port").
	Addr string

	// Pid identifies the worker process (0 for in-process workers).
	Pid int

	// Stop asks the worker to drain gracefully (SIGTERM for a process)
	// and may wait for it; nil means only Kill is available.
	Stop func(ctx context.Context) error

	// Kill terminates the worker immediately.
	Kill func()

	// Done yields the worker's exit (error or nil) exactly once.
	Done <-chan error
}

// StartWorker launches shard i and returns its handle once the worker
// has a listen address (readiness is the supervisor's job). The
// default implementation execs an ipcpd binary (ProcessSpawner); tests
// inject in-process servers.
type StartWorker func(shard int) (*WorkerHandle, error)

// shardState is one shard's lifecycle position.
type shardState int

const (
	shardDown shardState = iota
	shardReady
	shardStopped
)

// ShardStatus is one shard's externally visible state.
type ShardStatus struct {
	Shard    int
	Addr     string
	Ready    bool
	Pid      int
	Restarts int64
}

// supervisor owns the worker set.
type supervisor struct {
	start        StartWorker
	n            int
	backoffMin   time.Duration
	backoffMax   time.Duration
	drainTimeout time.Duration
	logf         func(format string, args ...any)
	probe        *http.Client

	mu     sync.Mutex
	shards []shardInfo

	stopc    chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

type shardInfo struct {
	state    shardState
	addr     string
	pid      int
	restarts int64
}

func newSupervisor(start StartWorker, n int, backoffMin, backoffMax, drainTimeout time.Duration, logf func(string, ...any)) *supervisor {
	return &supervisor{
		start:        start,
		n:            n,
		backoffMin:   backoffMin,
		backoffMax:   backoffMax,
		drainTimeout: drainTimeout,
		logf:         logf,
		probe:        &http.Client{Timeout: time.Second},
		shards:       make([]shardInfo, n),
		stopc:        make(chan struct{}),
	}
}

// run launches one manage goroutine per shard. It returns immediately;
// waitReady observes the fleet becoming serveable.
func (s *supervisor) run() {
	s.wg.Add(s.n)
	for i := 0; i < s.n; i++ {
		go s.manage(i)
	}
}

// manage is shard i's lifecycle loop: start, await readiness, serve
// until exit, restart with backoff; on stop, drain gracefully.
func (s *supervisor) manage(i int) {
	defer s.wg.Done()
	backoff := s.backoffMin
	for {
		if s.stopping() {
			return
		}
		h, err := s.start(i)
		if err != nil {
			s.logf("fleet: shard %d start: %v (retrying in %s)", i, err, backoff)
			if !s.pause(backoff) {
				return
			}
			backoff = s.nextBackoff(backoff)
			continue
		}
		if err := s.awaitReady(h); err != nil {
			h.Kill()
			<-h.Done
			if s.stopping() {
				return
			}
			s.logf("fleet: shard %d never became ready: %v (retrying in %s)", i, err, backoff)
			if !s.pause(backoff) {
				return
			}
			backoff = s.nextBackoff(backoff)
			continue
		}
		s.setReady(i, h)
		s.logf("fleet: shard %d ready on %s (pid %d)", i, h.Addr, h.Pid)
		backoff = s.backoffMin

		select {
		case <-s.stopc:
			s.stopWorker(i, h)
			return
		case exitErr := <-h.Done:
			s.markDown(i, true)
			s.logf("fleet: shard %d exited (%v); restarting in %s", i, exitErr, backoff)
			if !s.pause(backoff) {
				return
			}
			backoff = s.nextBackoff(backoff)
		}
	}
}

// stopWorker is the graceful half of shutdown: forward Stop (SIGTERM),
// wait for the worker's in-flight work to drain, kill it only if the
// drain timeout expires.
func (s *supervisor) stopWorker(i int, h *WorkerHandle) {
	s.markDown(i, false)
	ctx, cancel := context.WithTimeout(context.Background(), s.drainTimeout)
	defer cancel()
	if h.Stop != nil {
		if err := h.Stop(ctx); err != nil {
			s.logf("fleet: shard %d stop: %v", i, err)
		}
	}
	select {
	case <-h.Done:
	case <-ctx.Done():
		s.logf("fleet: shard %d did not drain within %s; killing", i, s.drainTimeout)
		h.Kill()
		<-h.Done
	}
	s.mu.Lock()
	s.shards[i].state = shardStopped
	s.mu.Unlock()
}

// awaitReady polls the worker's /readyz until it answers 200, bounded
// by the ready timeout, the worker exiting, and supervisor stop.
func (s *supervisor) awaitReady(h *WorkerHandle) error {
	deadline := time.Now().Add(readyTimeout)
	for {
		resp, err := s.probe.Get("http://" + h.Addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not ready after %s", readyTimeout)
		}
		t := time.NewTimer(25 * time.Millisecond)
		select {
		case <-t.C:
		case <-s.stopc:
			t.Stop()
			return fmt.Errorf("supervisor stopping")
		}
	}
}

// stop ends supervision: every manage loop drains its worker and
// exits. Safe to call twice.
func (s *supervisor) stop() {
	s.stopOnce.Do(func() { close(s.stopc) })
	s.wg.Wait()
}

func (s *supervisor) stopping() bool {
	select {
	case <-s.stopc:
		return true
	default:
		return false
	}
}

// pause sleeps for d, returning false when supervision stopped first.
func (s *supervisor) pause(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-s.stopc:
		return false
	}
}

func (s *supervisor) nextBackoff(d time.Duration) time.Duration {
	if d *= 2; d > s.backoffMax {
		return s.backoffMax
	}
	return d
}

func (s *supervisor) setReady(i int, h *WorkerHandle) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.shards[i].state = shardReady
	s.shards[i].addr = h.Addr
	s.shards[i].pid = h.Pid
}

// markDown takes shard i out of the routing set; crashed counts it as
// a restart (the respawn that follows).
func (s *supervisor) markDown(i int, crashed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.shards[i].state = shardDown
	if crashed {
		s.shards[i].restarts++
	}
}

// healthy returns the shards currently in the routing set.
func (s *supervisor) healthy() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	alive := make([]int, 0, s.n)
	for i := range s.shards {
		if s.shards[i].state == shardReady {
			alive = append(alive, i)
		}
	}
	return alive
}

// addr returns shard i's address when it is ready.
func (s *supervisor) addr(i int) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i < 0 || i >= s.n || s.shards[i].state != shardReady {
		return "", false
	}
	return s.shards[i].addr, true
}

// snapshot reports every shard's state.
func (s *supervisor) snapshot() []ShardStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ShardStatus, s.n)
	for i := range s.shards {
		out[i] = ShardStatus{
			Shard:    i,
			Addr:     s.shards[i].addr,
			Ready:    s.shards[i].state == shardReady,
			Pid:      s.shards[i].pid,
			Restarts: s.shards[i].restarts,
		}
	}
	return out
}

// waitReady blocks until every shard is ready or ctx expires — the
// startup barrier (and the test hook for restart-within-backoff).
func (s *supervisor) waitReady(ctx context.Context) error {
	for {
		ready := 0
		for _, st := range s.snapshot() {
			if st.Ready {
				ready++
			}
		}
		if ready == s.n {
			return nil
		}
		t := time.NewTimer(25 * time.Millisecond)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return fmt.Errorf("fleet: %d/%d workers ready: %w", ready, s.n, ctx.Err())
		}
	}
}
