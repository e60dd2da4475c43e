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
#   4b. the allocation golden of Tables 2 and 3 (TestTableAllocGolden),
#      the front end's allocation bound (TestParseAllocBound) and the
#      symbolic-expression bounds (TestDoublingChainAllocBound: the
#      d = 40 doubling chain under every flavor, with and without a
#      cache; TestSumAllocLinear: a k-term sum allocates linearly in k)
#      without -race: the race detector changes what a run allocates,
#      so the -race run above excludes their files
#   5. the determinism suite and the matrix differential tests a
#      second time (-count=2 disables test caching), so
#      schedule-dependent flakiness — in the matrix runner's shared
#      stage-1 products too — has two chances to show up per CI run;
#      likewise the server's and the fleet's batch tests, whose items
#      fan out through par.For on a server and through one concurrent
#      sub-batch per shard at the fleet edge
#   5a. every benchmark once (-benchtime 1x): no test runs their set-up
#      code, which reaches into IR and analysis types a refactor can
#      change under them
#   5b. go vet + go test in perfbench, the benchmark's own module: the
#      root ./... pattern skips nested modules, so without this a core
#      change that breaks the benchmark's use of the library would pass
#   6. a CLI smoke run of the pass trace (-trace-passes on a
#      complete-propagation analysis), a check of the schedule -passes
#      prints for a plain and a complete configuration, then a smoke
#      run of goal-directed cloning: trfd must get a clone and a clone
#      row
#   7. an incremental smoke run: analyze ocean twice through a disk
#      cache; the second run must reuse every summary (100% hit rate)
#      and print the same stage-3 effort (solver passes and
#      jump-function evaluations) as the first, then an edited re-run:
#      analyze a two-procedure program through a disk cache, edit one
#      literal of its main program, and require the re-run to redo
#      that procedure alone and hit the other without a miss, which
#      only the saved snapshot read back allows (without it the run
#      looks up both procedures and misses the edited one), then a
#      shared-cache flavor sweep (ipcp -all) run twice on one
#      directory with an ipcp -cache-gc between them: the first sweep
#      saved every flavor's snapshot, so the collection deletes nothing
#      and every flavor row of the second sweep must hit all 19 of
#      ocean's procedures
#   7b. a doubling-chain smoke: generate K1 = K0 + K0, ..., K40 =
#      K39 + K39 (a 40-node DAG whose tree has 2^40 leaves) and run
#      ipcp -all -cache-dir on it twice, each under timeout 20; the
#      second run must hit every procedure under every flavor, and a
#      cached polynomial run must report SINK's M = 2^40
#   8. an analysis-server smoke run: start ipcpd on an ephemeral port,
#      analyze ocean through it twice with ipcp -server (the second
#      run must hit the daemon's resident snapshot), then SIGTERM it
#      and require a clean graceful drain
#   9. a crash-durability smoke: start ipcpd -cache-dir, analyze ocean
#      through it (every summary acked, hence on disk), kill -9 the
#      daemon, restart it on the same directory, and require both that
#      the directory holds no write-ahead journal segment (wal-*.wal)
#      and that a re-run reuses every summary — a SIGKILL after an
#      acked Put may lose nothing
#  10. a fleet smoke run: start ipcpd -workers 2, batch four files
#      whose lineages deterministically span both shards, verify the
#      routing distribution in /metrics and that the batch reached each
#      shard as one /v1/batch sub-request (a per-item relay would count
#      two worker calls per shard), SIGKILL one worker and require
#      immediate failover of a single file and then of the four-file
#      batch, and a supervised restart, then SIGTERM the fleet and
#      require a clean drain that reaps every worker
#  11. a short fuzz smoke of FuzzIncrementalEditChain, the
#      incremental-vs-scratch differential over fuzzer-chosen edit
#      chains
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

echo "==> go test -run TestTableAllocGolden -count=1 ./internal/report (without -race)"
go test -run TestTableAllocGolden -count=1 ./internal/report

echo "==> go test -run TestParseAllocBound -count=1 ./internal/mf/parser (without -race)"
go test -run TestParseAllocBound -count=1 ./internal/mf/parser

echo "==> go test -run 'TestDoublingChainAllocBound|TestSumAllocLinear' -count=1 . (without -race)"
go test -run 'TestDoublingChainAllocBound|TestSumAllocLinear' -count=1 .

echo "==> go test -race -run 'TestDeterminism|TestAnalyzeMatrix' -count=2 $short ."
go test -race -run 'TestDeterminism|TestAnalyzeMatrix' -count=2 $short .

echo "==> go test -race -run Batch -count=2 ./internal/server ./internal/fleet"
go test -race -run Batch -count=2 ./internal/server ./internal/fleet

echo "==> go test -run '^\$' -bench . -benchtime 1x ./..."
go test -run '^$' -bench . -benchtime 1x ./...

echo "==> perfbench: go vet ./... && go test ./..."
(cd perfbench && go vet ./... && go test ./...)

echo "==> pass-trace smoke (ipcp -suite ocean -complete -trace-passes)"
# Capture the output first: in a `go run ... | grep -q` pipeline under
# plain sh (no pipefail) a go run failure would be masked by grep's
# exit status; assigning to a variable makes set -e see it.
trace=$(go run ./cmd/ipcp -suite ocean -complete -trace-passes)
echo "$trace" | grep -q '^propagate' \
    || { echo "pass trace missing propagate row" >&2; exit 1; }

echo "==> schedule check (ipcp -passes, ipcp -passes -complete)"
plan=$(go run ./cmd/ipcp -passes)
[ "$plan" = "propagate" ] \
    || { echo "ipcp -passes printed: $plan" >&2; exit 1; }
plan=$(go run ./cmd/ipcp -passes -complete)
[ "$plan" = "fixpoint complete[<=10 rounds]{dce-round(propagate if stale -> dce)}" ] \
    || { echo "ipcp -passes -complete printed: $plan" >&2; exit 1; }

echo "==> clone smoke (ipcp -suite trfd -clone -trace-passes)"
cloned=$(go run ./cmd/ipcp -suite trfd -clone -trace-passes)
echo "$cloned" | grep -q '^clone ' \
    || { echo "clone trace missing clone row:" >&2; echo "$cloned" >&2; exit 1; }
echo "$cloned" | grep -q '([1-9][0-9]* clones in' \
    || { echo "cloning made no clone on trfd:" >&2; echo "$cloned" >&2; exit 1; }

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
first=$(go run ./cmd/ipcp -suite ocean -cache-dir "$cachedir")
rerun=$(go run ./cmd/ipcp -suite ocean -cache-dir "$cachedir")
echo "$rerun" | grep -q '100.0% hit rate' \
    || { echo "cached re-run did not reuse every summary:" >&2; echo "$rerun" >&2; exit 1; }
# Stage 3 solves every run from the initial VAL sets, so a re-run that
# reuses every summary still reports the first run's solver effort.
first_passes=$(echo "$first" | sed -n 's/^ *solver passes: *//p')
rerun_passes=$(echo "$rerun" | sed -n 's/^ *solver passes: *//p')
[ -n "$first_passes" ] && [ "$first_passes" = "$rerun_passes" ] \
    || { echo "cached re-run's solver effort differs from the first run's:" >&2; echo "$first" >&2; echo "$rerun" >&2; exit 1; }

echo "==> edited re-run smoke (a two-procedure program through a disk cache, one literal of DRIVER edited)"
# An unchanged re-run hits every procedure even without a snapshot,
# because each is then looked up by its content key. After an edit of
# DRIVER, the snapshot read back proves SOLVE unchanged, so SOLVE is the
# one lookup and it hits; without the snapshot DRIVER is looked up too,
# and misses.
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
go run ./cmd/ipcp -cache-dir "$cachedir/edit" "$cachedir/fleet-a.f" > /dev/null
sed 's/N = 1000/N = 1001/' "$cachedir/fleet-a.f" > "$cachedir/edited.f"
edited=$(go run ./cmd/ipcp -cache-dir "$cachedir/edit" "$cachedir/edited.f")
echo "$edited" | grep -q '1/2 procedures re-analyzed, 1 hits, 0 misses' \
    || { echo "edited re-run did not read its saved snapshot back:" >&2; echo "$edited" >&2; exit 1; }

echo "==> shared-cache sweep smoke (ipcp -all -suite ocean twice on one cache, -cache-gc between)"
go run ./cmd/ipcp -all -suite ocean -cache-dir "$cachedir/sweep" > /dev/null
go run ./cmd/ipcp -cache-gc -cache-dir "$cachedir/sweep" > /dev/null
sweep=$(go run ./cmd/ipcp -all -suite ocean -cache-dir "$cachedir/sweep")
# Rows 2-5 are the four flavors; the last column is the flavor's hits.
# The first sweep stored every flavor's records under that flavor's
# keys and saved each flavor's snapshot, which pins those records
# through the collection, so every row of the second sweep must hit
# all 19 procedures.
full_rows=$(echo "$sweep" | awk 'NR>1 && $NF == 19' | wc -l)
[ "$full_rows" -eq 4 ] \
    || { echo "second shared-cache sweep did not hit all 19 procedures under every flavor:" >&2; echo "$sweep" >&2; exit 1; }

echo "==> doubling-chain smoke (d = 40 through ipcp -all -cache-dir, twice, 20 s each)"
# K1 = K0 + K0, ..., K40 = K39 + K39 passed to SINK: a 40-node DAG whose
# tree has 2^40 leaves. Each run must finish inside the timeout, the
# second must hit all three procedures under every flavor, and the
# cached polynomial run must still find SINK's M = 2^40.
go build -o "$cachedir/ipcp" ./cmd/ipcp
{
    printf 'PROGRAM MAIN\n  INTEGER N\n  N = 1\n  CALL CHAIN(N)\nEND\n\nSUBROUTINE CHAIN(K0)\n  INTEGER K0\n'
    i=1
    while [ "$i" -le 40 ]; do
        printf '  K%d = K%d + K%d\n' "$i" $((i - 1)) $((i - 1))
        i=$((i + 1))
    done
    printf '  CALL SINK(K40)\n  RETURN\nEND\n\nSUBROUTINE SINK(M)\n  INTEGER M, R\n  R = M\n  RETURN\nEND\n'
} > "$cachedir/chain.f"
timeout 20 "$cachedir/ipcp" -all -cache-dir "$cachedir/chain" "$cachedir/chain.f" > /dev/null \
    || { echo "cold doubling-chain sweep failed or timed out" >&2; exit 1; }
chain=$(timeout 20 "$cachedir/ipcp" -all -cache-dir "$cachedir/chain" "$cachedir/chain.f") \
    || { echo "warm doubling-chain sweep failed or timed out" >&2; exit 1; }
full_rows=$(echo "$chain" | awk 'NR>1 && $NF == 3' | wc -l)
[ "$full_rows" -eq 4 ] \
    || { echo "warm doubling-chain sweep did not hit all 3 procedures under every flavor:" >&2; echo "$chain" >&2; exit 1; }
chain=$(timeout 20 "$cachedir/ipcp" -constants -jump polynomial -cache-dir "$cachedir/chain" "$cachedir/chain.f") \
    || { echo "cached polynomial doubling-chain run failed or timed out" >&2; exit 1; }
echo "$chain" | grep -q 'M *= 1099511627776 ' \
    || { echo "cached polynomial run lost SINK's M = 2^40:" >&2; echo "$chain" >&2; exit 1; }

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

echo "==> crash-durability smoke (ipcpd -cache-dir, kill -9, restart, zero loss)"
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
# Every summary this run produces is acked — on disk before the
# response — so none of them may be lost to the SIGKILL that follows.
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
if ls "$waldir"/wal-*.wal > /dev/null 2>&1; then
    echo "durable ipcpd wrote a write-ahead journal segment:" >&2; ls "$waldir" >&2; exit 1
fi
rerun=$(go run ./cmd/ipcp -server "$addr" -suite ocean)
echo "$rerun" | grep -q '100.0% hit rate' \
    || { echo "summaries lost across kill -9 (re-run not fully warm):" >&2; echo "$rerun" >&2; cat "$cachedir/wal2.log" >&2; exit 1; }
kill -TERM "$ipcpd_pid"
wait "$ipcpd_pid" \
    || { echo "durable ipcpd did not drain cleanly:" >&2; cat "$cachedir/wal2.log" >&2; exit 1; }
ipcpd_pid=""

echo "==> fleet smoke (ipcpd -workers 2: cross-shard batch, crash failover, drain)"
# One small program (fleet-a.f, written by the edited re-run smoke)
# under four names. The names are chosen so that rendezvous routing
# under the default configuration deterministically puts fleet-a/c on
# shard 1 and fleet-b/d on shard 0 — the batch spans both shards on
# every run (TestRouteAnalyzeMatchesDispatchKey pins the hash).
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
    echo "$metrics" | grep -qx "ipcpd_fleet_requests_total{shard=\"$shard\",endpoint=\"batch\",code=\"200\"} 1" \
        || { echo "batch did not reach shard $shard as one sub-batch:" >&2; echo "$metrics" | grep fleet_requests >&2; exit 1; }
done

# Crash one worker (shard 1 owns fleet-a.f): the very next request must
# fail over to the surviving shard, and the supervisor must restart the
# dead one within its backoff bound.
w1pid=$(sed -n 's/.*fleet: shard 1 ready on .* (pid \([0-9]*\)).*/\1/p' "$cachedir/fleet.log" | head -n 1)
[ -n "$w1pid" ] || { echo "could not find shard 1's pid in the fleet log" >&2; cat "$cachedir/fleet.log" >&2; exit 1; }
kill -9 "$w1pid"
(cd "$cachedir" && ./ipcp -server "$fleet_addr" fleet-a.f > /dev/null) \
    || { echo "request for the dead shard's lineage did not fail over" >&2; cat "$cachedir/fleet.log" >&2; exit 1; }
# The cross-shard batch must survive the dead shard too: every item the
# dead shard owned fails over, or routes around it once it is down.
batch=$(cd "$cachedir" && ./ipcp -server "$fleet_addr" fleet-a.f fleet-b.f fleet-c.f fleet-d.f) \
    || { echo "batch across the dead shard failed" >&2; cat "$cachedir/fleet.log" >&2; exit 1; }
for f in fleet-a.f fleet-b.f fleet-c.f fleet-d.f; do
    echo "$batch" | grep -q "^$f:" \
        || { echo "batch across the dead shard is missing $f:" >&2; echo "$batch" >&2; exit 1; }
done
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
