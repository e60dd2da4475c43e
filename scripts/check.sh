#!/bin/sh
# check.sh — the repo's CI gate.
#
# Runs, in order:
#   1. gofmt -l        formatting gate (fails listing unformatted files)
#   2. go vet          static checks
#   2b. ipcplint       the repo's own invariant-checker suite
#                      (internal/lint) run through go vet -vettool, so
#                      every failure names the analyzer and position;
#                      see DESIGN.md "Static analysis of the analyzer"
#   3. go build        every package compiles
#   4. go test -race   the full test suite under the race detector,
#                      which turns the concurrency regression tests and
#                      the determinism differential suite into a
#                      shared-state audit of the parallel pipeline
#   5. the determinism suite and the matrix differential tests a
#      second time (-count=2 disables test caching), so
#      schedule-dependent flakiness — in the matrix runner's shared
#      stage-1 products too — has two chances to show up per CI run
#   5b. go vet + go test in perfbench, the benchmark's own module: the
#      root ./... pattern skips nested modules, so without this a core
#      change that breaks the benchmark's use of the library would pass
#   6. a CLI smoke run of the pass-manager instrumentation
#      (-trace-passes on a complete-propagation analysis)
#   7. an incremental smoke run: analyze ocean twice through a disk
#      cache; the second run must reuse every summary (100% hit rate),
#      then a shared-cache flavor sweep (ipcp -all): the second flavor
#      must hit the flavor-invariant stage-1 layer the first one wrote
#   8. an analysis-server smoke run: start ipcpd on an ephemeral port,
#      analyze ocean through it twice with ipcp -server (the second
#      run must hit the daemon's resident snapshot), then SIGTERM it
#      and require a clean graceful drain
#   9. a crash-durability smoke: start ipcpd -cache-dir, analyze ocean
#      through it (every summary acked), kill -9 the daemon, restart it
#      on the same directory, and require both that the write-ahead
#      journal metrics are exposed and that a re-run reuses every
#      summary — a SIGKILL after an acked Put may lose nothing
#  10. a fleet smoke run: start ipcpd -workers 2, batch four files
#      whose lineages deterministically span both shards, verify the
#      routing distribution in /metrics, SIGKILL one worker and require
#      both immediate failover and a supervised restart, then SIGTERM
#      the fleet and require a clean drain that reaps every worker
#  11. a short fuzz smoke of FuzzIncrementalEditChain, the
#      warm-vs-scratch differential over fuzzer-chosen edit chains
#
# Usage: scripts/check.sh [-short]
#   -short trims the random-program sweeps (200 -> 40 seeds) for a
#   faster local pre-commit pass; CI should run the full version.

set -eu

cd "$(dirname "$0")/.."

short=""
if [ "${1:-}" = "-short" ]; then
    short="-short"
fi

echo "==> gofmt -l ."
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> ipcplint (go vet -vettool) ./..."
lintdir=$(mktemp -d)
go build -o "$lintdir/ipcplint" ./cmd/ipcplint
# Failures print as file:line:col: message [analyzer] and exit non-zero.
go vet -vettool="$lintdir/ipcplint" ./...
rm -rf "$lintdir"

echo "==> go build ./..."
go build ./...

echo "==> go test -race $short ./..."
go test -race $short ./...

echo "==> go test -race -run 'TestDeterminism|TestAnalyzeMatrix' -count=2 $short ."
go test -race -run 'TestDeterminism|TestAnalyzeMatrix' -count=2 $short .

echo "==> perfbench: go vet ./... && go test ./..."
(cd perfbench && go vet ./... && go test ./...)

echo "==> pass-trace smoke (ipcp -suite ocean -complete -trace-passes)"
# Capture the output first: in a `go run ... | grep -q` pipeline under
# plain sh (no pipefail) a go run failure would be masked by grep's
# exit status; assigning to a variable makes set -e see it.
trace=$(go run ./cmd/ipcp -suite ocean -complete -trace-passes)
echo "$trace" | grep -q '^propagate' \
    || { echo "pass trace missing propagate row" >&2; exit 1; }

echo "==> incremental smoke (ipcp -suite ocean -cache-dir, run twice)"
cachedir=$(mktemp -d)
ipcpd_pid=""
fleet_pid=""
cleanup() {
    if [ -n "$ipcpd_pid" ]; then
        kill "$ipcpd_pid" 2>/dev/null || true
    fi
    if [ -n "$fleet_pid" ]; then
        kill "$fleet_pid" 2>/dev/null || true
    fi
    rm -rf "$cachedir"
}
trap cleanup EXIT
go run ./cmd/ipcp -suite ocean -cache-dir "$cachedir" > /dev/null
warm=$(go run ./cmd/ipcp -suite ocean -cache-dir "$cachedir")
echo "$warm" | grep -q '100.0% hit rate' \
    || { echo "warm incremental run did not reuse every summary:" >&2; echo "$warm" >&2; exit 1; }
echo "$warm" | grep -q 'warm, 0-procedure cone' \
    || { echo "unchanged re-run did not warm-start with an empty cone:" >&2; echo "$warm" >&2; exit 1; }

echo "==> shared-cache sweep smoke (ipcp -all -suite ocean, flavor-split stage-1 reuse)"
sweep=$(go run ./cmd/ipcp -all -suite ocean -cache-dir "$cachedir/sweep")
# Row 3 is the second flavor; column NF-1 is its s1-hits count, which
# must be > 0: the stage-1 blobs the first flavor wrote are keyed
# without the jump-function flavor, so every later flavor reuses them.
second_hits=$(echo "$sweep" | awk 'NR==3 {print $(NF-1)}')
[ "${second_hits:-0}" -gt 0 ] 2>/dev/null \
    || { echo "second flavor of the shared-cache sweep saw no stage-1 hits:" >&2; echo "$sweep" >&2; exit 1; }

echo "==> analysis-server smoke (ipcpd ephemeral port, remote analyze, graceful drain)"
go build -o "$cachedir/ipcpd" ./cmd/ipcpd
"$cachedir/ipcpd" -addr 127.0.0.1:0 > "$cachedir/ipcpd.log" 2>&1 &
ipcpd_pid=$!
addr=""
for _ in 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20; do
    addr=$(sed -n 's/^ipcpd: listening on //p' "$cachedir/ipcpd.log")
    [ -n "$addr" ] && break
    sleep 0.25
done
[ -n "$addr" ] || { echo "ipcpd never reported its address:" >&2; cat "$cachedir/ipcpd.log" >&2; exit 1; }
go run ./cmd/ipcp -server "$addr" -suite ocean > /dev/null
served=$(go run ./cmd/ipcp -server "$addr" -suite ocean)
echo "$served" | grep -q '100.0% hit rate' \
    || { echo "second served run did not hit the daemon's resident snapshot:" >&2; echo "$served" >&2; exit 1; }
kill -TERM "$ipcpd_pid"
wait "$ipcpd_pid" \
    || { echo "ipcpd did not drain cleanly:" >&2; cat "$cachedir/ipcpd.log" >&2; exit 1; }
ipcpd_pid=""

echo "==> WAL durability smoke (ipcpd -cache-dir, kill -9, restart, zero loss)"
waldir="$cachedir/waldir"
"$cachedir/ipcpd" -addr 127.0.0.1:0 -cache-dir "$waldir" > "$cachedir/wal.log" 2>&1 &
ipcpd_pid=$!
addr=""
for _ in 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20; do
    addr=$(sed -n 's/^ipcpd: listening on //p' "$cachedir/wal.log")
    [ -n "$addr" ] && break
    sleep 0.25
done
[ -n "$addr" ] || { echo "durable ipcpd never reported its address:" >&2; cat "$cachedir/wal.log" >&2; exit 1; }
# Every summary this run produces is acked — journaled before the
# response — so none of them may be lost to the SIGKILL that follows,
# whether or not the async disk write-backs had finished.
go run ./cmd/ipcp -server "$addr" -suite ocean > /dev/null
kill -9 "$ipcpd_pid"
wait "$ipcpd_pid" 2>/dev/null || true
ipcpd_pid=""
"$cachedir/ipcpd" -addr 127.0.0.1:0 -cache-dir "$waldir" > "$cachedir/wal2.log" 2>&1 &
ipcpd_pid=$!
addr=""
for _ in 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20; do
    addr=$(sed -n 's/^ipcpd: listening on //p' "$cachedir/wal2.log")
    [ -n "$addr" ] && break
    sleep 0.25
done
[ -n "$addr" ] || { echo "restarted ipcpd never reported its address:" >&2; cat "$cachedir/wal2.log" >&2; exit 1; }
go run ./cmd/ipcp -server "$addr" -metrics | grep -q 'ipcpd_wal_replayed_total' \
    || { echo "restarted ipcpd does not expose WAL replay metrics" >&2; exit 1; }
rerun=$(go run ./cmd/ipcp -server "$addr" -suite ocean)
echo "$rerun" | grep -q '100.0% hit rate' \
    || { echo "summaries lost across kill -9 (re-run not fully warm):" >&2; echo "$rerun" >&2; cat "$cachedir/wal2.log" >&2; exit 1; }
kill -TERM "$ipcpd_pid"
wait "$ipcpd_pid" \
    || { echo "durable ipcpd did not drain cleanly:" >&2; cat "$cachedir/wal2.log" >&2; exit 1; }
ipcpd_pid=""

echo "==> fleet smoke (ipcpd -workers 2: cross-shard batch, crash failover, drain)"
go build -o "$cachedir/ipcp" ./cmd/ipcp
# One small program under four names. The names are chosen so that
# rendezvous routing under the default configuration deterministically
# puts fleet-a/c on shard 1 and fleet-b/d on shard 0 — the batch spans
# both shards on every run (TestRouteAnalyzeMatchesDispatchKey pins
# the hash).
cat > "$cachedir/fleet-a.f" <<'EOF'
PROGRAM DRIVER
  INTEGER N, TOL
  N = 1000
  TOL = 5
  CALL SOLVE(N, TOL)
END

SUBROUTINE SOLVE(NPTS, ITOL)
  INTEGER NPTS, ITOL, I, ACC
  ACC = 0
  DO I = 1, NPTS
    ACC = ACC + ITOL
  ENDDO
  RETURN
END
EOF
for f in fleet-b.f fleet-c.f fleet-d.f; do
    cp "$cachedir/fleet-a.f" "$cachedir/$f"
done
"$cachedir/ipcpd" -addr 127.0.0.1:0 -workers 2 > "$cachedir/fleet.log" 2>&1 &
fleet_pid=$!
fleet_addr=""
for _ in 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20; do
    fleet_addr=$(sed -n 's/^ipcpd: listening on //p' "$cachedir/fleet.log")
    if [ -n "$fleet_addr" ] && grep -q 'fleet: 2 workers ready' "$cachedir/fleet.log"; then
        break
    fi
    fleet_addr=""
    sleep 0.25
done
[ -n "$fleet_addr" ] || { echo "fleet never became ready:" >&2; cat "$cachedir/fleet.log" >&2; exit 1; }

batch=$(cd "$cachedir" && ./ipcp -server "$fleet_addr" fleet-a.f fleet-b.f fleet-c.f fleet-d.f)
for f in fleet-a.f fleet-b.f fleet-c.f fleet-d.f; do
    echo "$batch" | grep -q "^$f:" \
        || { echo "batch result missing $f:" >&2; echo "$batch" >&2; exit 1; }
done
metrics=$("$cachedir/ipcp" -server "$fleet_addr" -metrics)
for shard in 0 1; do
    echo "$metrics" | grep -q "ipcpd_fleet_routed_total{shard=\"$shard\"} [1-9]" \
        || { echo "batch did not route anything to shard $shard:" >&2; echo "$metrics" | grep fleet_routed >&2; exit 1; }
done

# Crash one worker (shard 1 owns fleet-a.f): the very next request must
# fail over to the surviving shard, and the supervisor must restart the
# dead one within its backoff bound.
w1pid=$(sed -n 's/.*fleet: shard 1 ready on .* (pid \([0-9]*\)).*/\1/p' "$cachedir/fleet.log" | head -n 1)
[ -n "$w1pid" ] || { echo "could not find shard 1's pid in the fleet log" >&2; cat "$cachedir/fleet.log" >&2; exit 1; }
kill -9 "$w1pid"
(cd "$cachedir" && ./ipcp -server "$fleet_addr" fleet-a.f > /dev/null) \
    || { echo "request for the dead shard's lineage did not fail over" >&2; cat "$cachedir/fleet.log" >&2; exit 1; }
restarted=0
for _ in 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20; do
    if [ "$(grep -c 'fleet: shard 1 ready' "$cachedir/fleet.log")" -ge 2 ]; then
        restarted=1
        break
    fi
    sleep 0.25
done
[ "$restarted" = 1 ] || { echo "shard 1 was not restarted after its crash:" >&2; cat "$cachedir/fleet.log" >&2; exit 1; }
"$cachedir/ipcp" -server "$fleet_addr" -metrics | grep -q 'ipcpd_fleet_restarts_total{shard="1"} 1' \
    || { echo "restart not counted in fleet metrics" >&2; exit 1; }

# Graceful drain must reap every worker process.
w0pid=$(sed -n 's/.*fleet: shard 0 ready on .* (pid \([0-9]*\)).*/\1/p' "$cachedir/fleet.log" | head -n 1)
w1pid=$(sed -n 's/.*fleet: shard 1 ready on .* (pid \([0-9]*\)).*/\1/p' "$cachedir/fleet.log" | tail -n 1)
kill -TERM "$fleet_pid"
wait "$fleet_pid" \
    || { echo "fleet did not drain cleanly:" >&2; cat "$cachedir/fleet.log" >&2; exit 1; }
fleet_pid=""
for pid in $w0pid $w1pid; do
    if kill -0 "$pid" 2>/dev/null; then
        echo "worker $pid survived the fleet drain" >&2
        exit 1
    fi
done

echo "==> fuzz smoke (FuzzIncrementalEditChain, 10s)"
go test -fuzz 'FuzzIncrementalEditChain' -fuzztime 10s -run '^$' .

echo "OK"
