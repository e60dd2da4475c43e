// Command perfbench is the repository's benchmark: it runs one named
// workload for a fixed number of seconds, checks every op's output
// against references the path under test did not produce, and prints
// the end-to-end metrics — or, with --trace 1, the per-layer metrics
// from spans recorded around its own calls into each package — as the
// last line of its standard output. README.md in this directory
// describes the workloads and metrics.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload study-tables --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"ipcp"
)

// workload is one set of inputs and the op the benchmark repeats over
// them.
type workload interface {
	// prepare generates the inputs from the seed and computes every
	// reference; it runs before the set-up clock starts.
	prepare(seed int64) error
	// setup is what a user pays once; it is timed, repeated, and each
	// repetition but the last is undone by teardown. Its check runs
	// after the clock stops.
	setup() (check func() error, err error)
	// teardown undoes a set-up; final is true once, after the window.
	teardown(final bool)
	// callers is the number of closed-loop callers.
	callers() int
	// op runs one op and returns its output.
	op(c opCtx) (out any, err error)
	// check verifies an op's output; the runner calls it after the op's
	// latency is taken.
	check(out any) error
	// properties describes the inputs, including shares measured over
	// the run's ops.
	properties() []string
	// cacheFacts names the directory the workload's summary store
	// writes and its filesystem, "" when it has none.
	cacheFacts() string
	// layers computes the per-layer metrics of the traced ops.
	layers(t *tracer, traced int) map[string]float64
}

// opCtx identifies one op. t is nil when the op is not traced.
type opCtx struct {
	caller   int
	id, root int64
	t        *tracer
}

const (
	// setupReps is how many times set-up runs; setup_s is the median.
	setupReps = 11
	// warmup runs ops before the timed window so heap sizing and lazy
	// initialization settle; they are checked but not counted.
	warmup = time.Second
	// slices is how many equal slices the timed window is cut into.
	// The time metrics come from the slices whose steal time is at most
	// the median slice's: ops_per_s and cpu_ms_per_op are medians over
	// them, op_p50_ms and op_tail_ms are over the ops started in them.
	slices = 10
)

type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"alloc_mb_per_op", "MB"},
	{"cpu_ms_per_op", "ms"},
	{"op_ok_ratio", "ratio"},
}

var perLayer = []metricDef{
	{"parser.ms_per_op", "ms"},
	{"sema.ms_per_op", "ms"},
	{"core.matrix_ms_per_op", "ms"},
	{"core.intra_ms_per_op", "ms"},
	{"core.propagate_ms_per_op", "ms"},
	{"core.dce_ms_per_op", "ms"},
	{"core.solver_passes_per_op", "count"},
	{"core.jf_evals_per_op", "count"},
	{"core.poly_jf_share", "ratio"},
	{"incr.self_ms_per_op", "ms"},
	{"incr.reanalyzed_per_op", "count"},
	{"incr.worklist_visited_per_op", "count"},
	{"summary.gets_per_op", "count"},
	{"summary.get_ms_per_op", "ms"},
	{"summary.disk_hit_ratio", "ratio"},
	{"summary.puts_per_op", "count"},
	{"summary.put_ms_per_op", "ms"},
	{"summary.put_kb_per_op", "kB"},
	{"summary.snapshot_load_ms_per_op", "ms"},
	{"summary.chain_save_ms_per_op", "ms"},
	{"summary.chain_delta_ratio", "ratio"},
	{"wal.open_ms_per_op", "ms"},
	{"wal.close_ms_per_op", "ms"},
	{"client.transport_ms_per_op", "ms"},
	{"fleet.edge_self_ms_per_op", "ms"},
	{"server.request_ms", "ms"},
	{"server.shard_skew", "ratio"},
	{"server.rejected_per_op", "count"},
	{"server.summary_hit_ratio", "ratio"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.unattributed_ms_per_op", "ms"},
}

var workloadNames = []string{"study-tables", "edit-loop", "serve-fleet"}

func newWorkload(name string, t *tracer, work string) workload {
	switch name {
	case "study-tables":
		return &studyTables{}
	case "edit-loop":
		return &editLoop{scale: editScale, edits: editChainN, work: work}
	case "serve-fleet":
		return &serveFleet{t: t, scale: fleetScale, chainN: fleetChainN}
	}
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "length of the timed window")
	traceFlag := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	work, err := filepath.Abs(filepath.Join(".bench_build", "perfbench"))
	if err == nil {
		err = os.MkdirAll(work, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	var tr *tracer
	if *traceFlag == 1 {
		tr = newTracer()
		// The fleet's shard clients use the default transport; wrapping
		// it is how the edge's span reaches the shards.
		http.DefaultTransport = traceTransport{base: http.DefaultTransport}
	}
	w := newWorkload(*name, tr, work)
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames, ", "))
		return 2
	}
	res, err := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), warmup, tr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res.print(out, *name, *seed, tr, work)
	return 0
}

// ---------------------------------------------------------------------------
// Measurement

// opRecord is one op of a loop: when it started (an offset from the
// loop's start), how long it took, and the thread CPU its check took
// and when that check ended.
type opRecord struct {
	start, lat         time.Duration
	checkEnd, checkCPU time.Duration
	ok                 bool
	traced             bool
	caller             int
}

// sample is the process CPU time and the VM's steal time at an offset
// from the loop's start.
type sample struct{ at, cpu, steal time.Duration }

// phase is the wall time of one stage of a run outside the window.
type phase struct {
	name string
	d    time.Duration
}

type result struct {
	w            workload
	prepare      time.Duration
	phases       []phase // set-ups with their settles, warm-up, teardown
	setups       []time.Duration
	setupCPU     []cpuSplit
	records      []opRecord
	elapsed      time.Duration
	samples      []sample // at the window's start, each slice boundary and its end
	allocBytes   uint64
	peakRSSKB    int64
	rssReset     bool
	failures     []string
	extraFailure int // set-up and warm-up ops that failed their check
	layers       map[string]float64
}

// measure runs prepare, the repeated set-up, the warm-up and the timed
// window.
func measure(w workload, seed int64, window, warm time.Duration, tr *tracer) (*result, error) {
	t0 := time.Now()
	if err := w.prepare(seed); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	prep := time.Since(t0)
	// Inputs and references stay resident, but their garbage is
	// returned to the OS, so the peak resident set reflects set-up and
	// the window.
	settle()
	r := &result{w: w, prepare: prep, rssReset: resetPeakRSS()}
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			w.teardown(false)
			settle()
		}
		c0, t0 := processCPU(), time.Now()
		check, err := w.setup()
		r.setups = append(r.setups, time.Since(t0))
		r.setupCPU = append(r.setupCPU, processCPU().minus(c0))
		if err == nil {
			err = check()
		}
		if err != nil {
			w.teardown(true)
			return nil, fmt.Errorf("setup: %w", err)
		}
	}
	r.phases = append(r.phases, phase{"setups", time.Since(t0) - prep})
	t0 = time.Now()
	settle()
	var ids atomic.Int64
	wl := loop(w, warm, nil, &ids)
	for _, rec := range wl.records {
		if !rec.ok {
			r.extraFailure++
		}
	}
	r.failures = wl.failures
	r.phases = append(r.phases, phase{"warm-up", time.Since(t0)})
	alloc0 := allocated()
	l := loop(w, window, tr, &ids)
	r.allocBytes = allocated() - alloc0
	r.records, r.elapsed, r.samples = l.records, l.elapsed, l.samples
	r.failures = append(r.failures, l.failures...)
	r.peakRSSKB = peakRSSKB()
	if tr != nil {
		// Before the teardown: the fleet's layers read the shards' live
		// counters.
		traced := 0
		for _, rec := range r.records {
			if rec.traced {
				traced++
			}
		}
		r.layers = w.layers(tr, traced)
	}
	t0 = time.Now()
	w.teardown(true)
	r.phases = append(r.phases, phase{"teardown", time.Since(t0)})
	return r, nil
}

type loopResult struct {
	records  []opRecord
	elapsed  time.Duration
	failures []string
	samples  []sample
}

// loop runs every caller closed-loop until the window ends. With a
// tracer, each caller traces every other op, so the traced and
// untraced latencies come from the same run. Each caller verifies an
// op's output before it sends the next; every record carries its
// check's thread CPU, so the window's figures can leave it out. A
// sampler reads the process CPU and the VM's steal time at every slice
// boundary.
func loop(w workload, window time.Duration, tr *tracer, ids *atomic.Int64) loopResult {
	var (
		mu  sync.Mutex
		res loopResult
		wg  sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(window)
	now := func() sample { return sample{time.Since(start), cpuTime(), hostSteal()} }
	res.samples = []sample{now()}
	stop := make(chan struct{})
	sampled := make(chan []sample)
	go func() {
		var samples []sample
		defer func() { sampled <- samples }()
		for k := 1; k < slices; k++ {
			select {
			case <-time.After(time.Until(start.Add(window * time.Duration(k) / slices))):
				samples = append(samples, now())
			case <-stop:
				return
			}
		}
	}()
	for c := 0; c < w.callers(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var recs []opRecord
			var fails []string
			for k := 0; time.Now().Before(deadline); k++ {
				ctx := opCtx{caller: c, id: ids.Add(1)}
				var root span
				if tr != nil && k%2 == 1 {
					ctx.t = tr
					root = tr.start("op", 0, ctx.id)
					ctx.root = root.ID
				}
				t0 := time.Now()
				out, err := w.op(ctx)
				lat := time.Since(t0)
				if ctx.t != nil {
					tr.finish(root)
				}
				rec := opRecord{start: t0.Sub(start), lat: lat, traced: ctx.t != nil, caller: c}
				if err == nil {
					rec.checkCPU, err = timedCheck(func() error { return w.check(out) })
					rec.checkEnd = time.Since(start)
				}
				if err != nil && len(fails) < 5 {
					fails = append(fails, fmt.Sprintf("op %d (caller %d): %v", ctx.id, c, err))
				}
				rec.ok = err == nil
				recs = append(recs, rec)
			}
			mu.Lock()
			res.records = append(res.records, recs...)
			res.failures = append(res.failures, fails...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	close(stop)
	res.samples = append(res.samples, <-sampled...)
	res.samples = append(res.samples, now())
	res.elapsed = res.samples[len(res.samples)-1].at
	return res
}

// timedCheck runs check with its goroutine locked to one OS thread and
// returns the thread CPU time it took, with its error. Checks
// allocate nothing (TestChecksAllocateNothing), so the window's heap
// figure needs no correction.
func timedCheck(check func() error) (cpu time.Duration, err error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPU()
	err = check()
	return threadCPU() - c0, err
}

// ---------------------------------------------------------------------------
// Output

func (r *result) print(out io.Writer, name string, seed int64, tr *tracer, work string) {
	fmt.Fprintf(out, "workload %s seed %d\n", name, seed)
	for _, line := range hostFacts(r.w.cacheFacts()) {
		fmt.Fprintln(out, "host", line)
	}
	for _, line := range r.w.properties() {
		fmt.Fprintln(out, "input", line)
	}
	setups := make([]string, len(r.setups))
	for i, d := range r.setups {
		setups[i] = fmt.Sprintf("%.4f", d.Seconds())
	}
	setupCPU := make([]string, len(r.setupCPU))
	for i, c := range r.setupCPU {
		setupCPU[i] = fmt.Sprintf("%.4f/%.4f", c.user.Seconds(), c.sys.Seconds())
	}
	fmt.Fprintf(out, "prepare %.3f s (inputs and references, off every clock)\n", r.prepare.Seconds())
	ph := make([]string, len(r.phases))
	for i, p := range r.phases {
		ph[i] = fmt.Sprintf("%s %.3f s", p.name, p.d.Seconds())
	}
	fmt.Fprintf(out, "phases %s\n", strings.Join(ph, ", "))
	fmt.Fprintf(out, "setup %d repetitions, seconds: %s; process CPU user/sys seconds: %s\n", len(r.setups), strings.Join(setups, " "), strings.Join(setupCPU, " "))
	for _, f := range r.failures {
		fmt.Fprintln(out, "failure", f)
	}

	e2e, lats := r.endToEnd()
	_, pct := tailLatency(lats)
	fmt.Fprintf(out, "window %.3f s, %d ops attempted, %d verified; tail is p%.2f over the %d ops started in kept slices (the highest percentile with ten samples beyond it); peak RSS reset before set-up: %v\n",
		r.elapsed.Seconds(), len(r.records), r.ok(), pct, len(lats), r.rssReset)
	all := r.slices()
	steals := make([]string, len(all))
	for i, sl := range all {
		steals[i] = fmt.Sprintf("%.0f", ms(sl.steal))
	}
	kept := keep(all)
	rates, cpus := sliceMetrics(kept)
	fmt.Fprintf(out, "slices %d of %.2f s, steal ms (time the hypervisor kept the VM's ready CPUs): %s; %d kept with steal at most the median: ops_per_s min %.3f median %.3f max %.3f; cpu_ms_per_op min %.3f median %.3f max %.3f\n",
		len(all), r.elapsed.Seconds()/float64(max(len(all), 1)), strings.Join(steals, " "), len(kept),
		minF(rates), median(rates), maxF(rates), minF(cpus), median(cpus), maxF(cpus))
	for _, m := range endToEnd {
		fmt.Fprintf(out, "e2e %-20s %14.4f %s\n", m.name, e2e[m.name], m.unit)
	}

	chosen, defs := e2e, endToEnd
	if tr != nil {
		var traced, untraced []time.Duration
		for _, rec := range r.records {
			if rec.traced {
				traced = append(traced, rec.lat)
			} else {
				untraced = append(untraced, rec.lat)
			}
		}
		fmt.Fprintf(out, "trace %d traced and %d untraced ops; traced p50 %.3f ms, untraced p50 %.3f ms\n",
			len(traced), len(untraced), ms(quantile(traced, 0.5)), ms(quantile(untraced, 0.5)))
		layers := r.layers
		var unattributed int64
		for _, spans := range tr.byOp() {
			unattributed += index(spans).unattributed()
		}
		layers["trace.unattributed_ms_per_op"] = perOpMS(unattributed, len(traced))
		if u := quantile(untraced, 0.5); u > 0 {
			layers["trace.overhead_ratio"] = float64(quantile(traced, 0.5)) / float64(u)
		}
		for _, m := range perLayer {
			fmt.Fprintf(out, "layer %-32s %14.4f %s\n", m.name, layers[m.name], m.unit)
		}
		for _, line := range tr.summaryLines() {
			fmt.Fprintln(out, line)
		}
		path := filepath.Join(work, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
		if err := writeDump(tr, path); err != nil {
			fmt.Fprintln(out, "span dump failed:", err)
		} else {
			fmt.Fprintln(out, "span dump", path)
		}
		chosen, defs = layers, perLayer
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	vals := make(map[string]value, len(defs))
	for _, m := range defs {
		vals[m.name] = value{chosen[m.name], m.unit}
	}
	attempted, ok := len(r.records), r.ok()
	failed := attempted - ok
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), max(attempted, 1), failed, vals})
	fmt.Fprintln(out, string(line))
}

// correct reports whether every op of the window, the set-up and the
// warm-up passed its check.
func (r *result) correct() bool {
	return len(r.records) > 0 && r.ok() == len(r.records) && r.extraFailure == 0
}

func (r *result) ok() int {
	n := 0
	for _, rec := range r.records {
		if rec.ok {
			n++
		}
	}
	return n
}

// endToEnd computes the end-to-end metrics; it also returns the
// latencies of the ops started in kept slices, which op_p50_ms and
// op_tail_ms are taken over.
func (r *result) endToEnd() (map[string]float64, []time.Duration) {
	kept := keep(r.slices())
	var lats []time.Duration
	for _, rec := range r.records {
		for _, sl := range kept {
			if sl.a <= rec.start && rec.start < sl.b {
				lats = append(lats, rec.lat)
				break
			}
		}
	}
	ops := float64(max(len(r.records), 1))
	tail, _ := tailLatency(lats)
	rates, cpus := sliceMetrics(kept)
	return map[string]float64{
		"ops_per_s":       median(rates),
		"op_p50_ms":       ms(quantile(lats, 0.5)),
		"op_tail_ms":      ms(tail),
		"setup_s":         quantile(r.setups, 0.5).Seconds(),
		"peak_rss_mb":     float64(r.peakRSSKB) * 1024 / 1e6,
		"alloc_mb_per_op": float64(r.allocBytes) / 1e6 / ops,
		"cpu_ms_per_op":   median(cpus),
		"op_ok_ratio":     float64(r.ok()) / ops,
	}, lats
}

// slice is one slice of the window with its verified ops per second,
// its process CPU milliseconds per op and the steal time the VM's CPUs
// suffered in it.
type slice struct {
	a, b           time.Duration
	rate, cpuPerOp float64
	steal          time.Duration
}

// slices cuts the window at its samples. An op counts in a slice by
// the share of its latency that falls inside it, so ops straddling a
// slice's edges do not make its figures jump. A caller's rate is its
// verified ops over the time its ops took, which leaves its checks
// out; a slice's rate sums its callers' rates. The CPU of the checks
// that ended in a slice is taken off that slice's CPU. Slices no op
// overlaps are left out.
func (r *result) slices() []slice {
	callers := 0
	for _, rec := range r.records {
		callers = max(callers, rec.caller+1)
	}
	var out []slice
	for k := 0; k+1 < len(r.samples); k++ {
		a, b := r.samples[k].at, r.samples[k+1].at
		cpu := r.samples[k+1].cpu - r.samples[k].cpu
		busy := make([]time.Duration, callers)
		done := make([]float64, callers)
		var ops float64
		for _, rec := range r.records {
			if a < rec.checkEnd && rec.checkEnd <= b {
				cpu -= rec.checkCPU
			}
			in := min(rec.start+rec.lat, b) - max(rec.start, a)
			if in <= 0 || rec.lat <= 0 {
				continue
			}
			share := float64(in) / float64(rec.lat)
			ops += share
			busy[rec.caller] += in
			if rec.ok {
				done[rec.caller] += share
			}
		}
		if ops == 0 {
			continue
		}
		sl := slice{a: a, b: b, cpuPerOp: ms(cpu) / ops, steal: r.samples[k+1].steal - r.samples[k].steal}
		for c := range busy {
			if busy[c] > 0 {
				sl.rate += done[c] / busy[c].Seconds()
			}
		}
		out = append(out, sl)
	}
	return out
}

// keep returns the slices whose steal time is at most the median
// slice's. On a shared host the hypervisor now and then holds the VM's
// CPUs for a while — in a busy hour, 10–25% of their time, in bursts —
// and every op in flight waits; those slices measure the host, not the
// program. With no steal every slice is kept.
func keep(ss []slice) []slice {
	steals := make([]float64, len(ss))
	for i, sl := range ss {
		steals[i] = float64(sl.steal)
	}
	limit := median(steals)
	var out []slice
	for _, sl := range ss {
		if float64(sl.steal) <= limit {
			out = append(out, sl)
		}
	}
	return out
}

// sliceMetrics returns the slices' rates and CPU per op.
func sliceMetrics(ss []slice) (rates, cpuPerOp []float64) {
	for _, sl := range ss {
		rates = append(rates, sl.rate)
		cpuPerOp = append(cpuPerOp, sl.cpuPerOp)
	}
	return rates, cpuPerOp
}

func writeDump(tr *tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.dump(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---------------------------------------------------------------------------
// Statistics and process counters

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func perOpMS(ns int64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return float64(ns) / 1e6 / float64(ops)
}

func perOp(n int64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return float64(n) / float64(ops)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// median returns the median of xs, the mean of the middle two when
// their number is even; 0 when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

func minF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs {
		m = min(m, x)
	}
	return m
}

func maxF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// quantile returns the q-quantile by the nearest-rank rule.
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[int(q*float64(len(s)-1)+0.5)]
}

// tailLatency returns the highest order statistic with at least ten
// samples above it and the percentile it sits at; with fewer than 11
// samples it returns the maximum.
func tailLatency(ds []time.Duration) (time.Duration, float64) {
	n := len(ds)
	if n == 0 {
		return 0, 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if n < 11 {
		return s[n-1], 100
	}
	return s[n-11], 100 * float64(n-10) / float64(n)
}

func cpuTime() time.Duration {
	c := processCPU()
	return c.user + c.sys
}

type cpuSplit struct{ user, sys time.Duration }

func (c cpuSplit) minus(d cpuSplit) cpuSplit { return cpuSplit{c.user - d.user, c.sys - d.sys} }

// processCPU is the process's user and system CPU time.
func processCPU() cpuSplit {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return cpuSplit{}
	}
	return cpuSplit{time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())}
}

// threadCPU is the calling thread's CPU time.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

func allocated() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// hostSteal is the steal time of all the VM's CPUs (/proc/stat), 0
// where the kernel does not report it.
func hostSteal() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	var ticks int64
	fmt.Sscanf(f[8], "%d", &ticks)
	return time.Duration(ticks) * 10 * time.Millisecond // USER_HZ is 100
}

// peakRSSKB reads the process's peak resident set (VmHWM).
func peakRSSKB() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb int64
			fmt.Sscanf(strings.TrimPrefix(line, "VmHWM:"), "%d", &kb)
			return kb
		}
	}
	return 0
}

// settle puts every set-up, and the warm-up, on the same footing. It
// flushes dirty file data, so a phase does not pay for the writeback of
// files an earlier phase (or run) wrote, and it collects the heap and
// returns its free pages to the OS, so each set-up starts from the
// small heap of a fresh process. Without this, a run's first set-ups
// took up to twice as long as the later ones, which inherited the heap
// the first ones grew.
func settle() {
	syscall.Sync()
	debug.FreeOSMemory()
}

// resetPeakRSS restarts VmHWM from the current resident set.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

func hostFacts(cacheFacts string) []string {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	facts := []string{
		fmt.Sprintf("GOMAXPROCS=%d nproc=%d go=%s os=%s/%s", runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH),
		"cpu=" + cpu,
	}
	if cacheFacts == "" {
		return append(facts, "cache_dir=none (no on-disk summary store in this workload)")
	}
	return append(facts, cacheFacts)
}

// spreadSubdirs sets the top-of-hierarchy flag (chattr +T) on dir, so
// ext4 places each new subdirectory of dir — each set-up's summary
// cache — in a lightly used block group, as it places directories
// under the filesystem root, instead of in dir's own group. Without a
// journal, ext4 holds back a freed inode from reuse for a while, and
// every create in a block group first scans past the held-back inodes
// there. In dir's group those are the thousands of cache files the
// previous run deleted at its end: a cold fill of doduc at scale 24
// took 0.2–0.6 s instead of 0.05 s, depending on how long ago the last
// run ended. Filesystems without the flag refuse it, and set-up time
// then follows them.
func spreadSubdirs(dir string) error {
	const (
		getFlags = 0x80086601 // FS_IOC_GETFLAGS
		setFlags = 0x40086602 // FS_IOC_SETFLAGS
		topDir   = 0x00020000 // FS_TOPDIR_FL
	)
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer f.Close()
	var flags uint32
	if _, _, e := syscall.Syscall(syscall.SYS_IOCTL, f.Fd(), getFlags, uintptr(unsafe.Pointer(&flags))); e != 0 {
		return e
	}
	flags |= topDir
	if _, _, e := syscall.Syscall(syscall.SYS_IOCTL, f.Fd(), setFlags, uintptr(unsafe.Pointer(&flags))); e != 0 {
		return e
	}
	return nil
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown (" + err.Error() + ")"
	}
	names := map[int64]string{
		0x01021994: "tmpfs",
		0xEF53:     "ext2/3/4",
		0x794c7630: "overlayfs",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x6969:     "nfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// ---------------------------------------------------------------------------
// Report tallies shared by the workloads' per-layer metrics

// reportTally sums the exact counters and pass rows of the Reports a
// traced run produced.
type reportTally struct {
	solverPasses, jfEvals int64
	propagateNS, dceNS    int64
	shape                 ipcp.JumpFunctionShape
}

func (t *reportTally) add(r *ipcp.Report) {
	t.solverPasses += int64(r.SolverPasses)
	t.jfEvals += int64(r.JFEvaluations)
	for _, p := range r.Passes {
		switch p.Pass {
		case "propagate":
			t.propagateNS += p.Nanos
		case "dce":
			t.dceNS += p.Nanos
		}
	}
	t.shape.Bottom += r.JumpFunctionShape.Bottom
	t.shape.Constant += r.JumpFunctionShape.Constant
	t.shape.PassThrough += r.JumpFunctionShape.PassThrough
	t.shape.Polynomial += r.JumpFunctionShape.Polynomial
}

func (t *reportTally) jfs() int {
	return t.shape.Bottom + t.shape.Constant + t.shape.PassThrough + t.shape.Polynomial
}

// polyShare is the share of constructed forward jump functions that
// are genuinely polynomial.
func (t *reportTally) polyShare() float64 { return ratio(int64(t.shape.Polynomial), int64(t.jfs())) }

func (t *reportTally) metrics(m map[string]float64, ops int) {
	m["core.propagate_ms_per_op"] = perOpMS(t.propagateNS, ops)
	m["core.dce_ms_per_op"] = perOpMS(t.dceNS, ops)
	m["core.solver_passes_per_op"] = perOp(t.solverPasses, ops)
	m["core.jf_evals_per_op"] = perOp(t.jfEvals, ops)
	m["core.poly_jf_share"] = t.polyShare()
}
