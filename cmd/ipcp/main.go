// Command ipcp analyzes a MiniFortran program with the interprocedural
// constant propagation framework of Grove & Torczon (PLDI 1993) and
// reports the CONSTANTS sets and substitution counts.
//
// Usage:
//
//	ipcp [flags] file.f
//	ipcp [flags] -suite ocean          # analyze a generated suite program
//	ipcp -server :7117 a.f b.f c.f     # one /v1/batch request; a fleet
//	                                   # daemon fans the files across shards
//
// Flags select the configuration (one column of the paper's tables):
//
//	-jump literal|intra|passthrough|polynomial   forward jump function
//	-noret      disable return jump functions
//	-nomod      disable interprocedural MOD information
//	-complete   iterate propagation with dead-code elimination
//	-all        run all four flavors and print a comparison
//	-constants  list every CONSTANTS(p) entry
//	-stats      print program characteristics (Table 1 row)
//	-j N        analysis worker count (0 = one per CPU, 1 = sequential)
//
// The program database (incremental re-analysis):
//
//	-cache-dir DIR     persist summaries and a per-config snapshot under
//	                   DIR; a second run over an edited program re-analyzes
//	                   only the procedures the edit invalidated
//	-remote-cache URL  add a shared remote tier behind the local cache: a
//	                   blob service speaking ipcpd's /v1/blob protocol;
//	                   remote failures degrade to recomputation
//	-baseline old.f    analyze old.f first to warm the cache, then analyze
//	                   the input incrementally against it
//
// With -all the four flavors run through one shared cache; the table's
// hits column shows each flavor's reuse of what an earlier sweep over
// the same -cache-dir stored. Each flavor keeps its own snapshot there,
// the one a single-flavor run under the same flags loads, so -cache-gc
// keeps the records of every flavor.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"ipcp"
	"ipcp/internal/cli"
	"ipcp/internal/suite"
)

var jumpNames = map[string]ipcp.JumpFunction{
	"literal":     ipcp.Literal,
	"intra":       ipcp.Intraprocedural,
	"passthrough": ipcp.PassThrough,
	"polynomial":  ipcp.Polynomial,
}

func main() {
	jumpFlag := flag.String("jump", "passthrough", "forward jump function: literal, intra, passthrough, polynomial")
	noRet := flag.Bool("noret", false, "disable return jump functions")
	noMod := flag.Bool("nomod", false, "disable interprocedural MOD information")
	complete := flag.Bool("complete", false, "iterate propagation with dead-code elimination")
	all := flag.Bool("all", false, "compare all four jump-function flavors")
	cloneFlag := flag.Bool("clone", false, "apply goal-directed procedure cloning and report the gain")
	listConstants := flag.Bool("constants", false, "list every CONSTANTS(p) entry")
	emit := flag.Bool("emit", false, "print the transformed source with constants substituted")
	verify := flag.Bool("verify", false, "execute the program and check every reported constant against observed runtime values")
	stats := flag.Bool("stats", false, "print program characteristics")
	suiteName := flag.String("suite", "", "analyze a generated benchmark program instead of a file")
	scale := flag.Int("scale", suite.DefaultScale, "generation scale for -suite")
	workers := flag.Int("j", 0, "analysis workers (0 = one per CPU, 1 = sequential)")
	cacheDir := flag.String("cache-dir", "", "persist summaries and a snapshot under this directory and re-analyze incrementally")
	remoteCache := flag.String("remote-cache", "", "share summaries through a blob service at this URL (ipcpd's /v1/blob endpoint), tiered behind the local cache")
	baseline := flag.String("baseline", "", "warm the cache from this source file, then analyze the input incrementally")
	cacheGC := flag.Bool("cache-gc", false, "garbage-collect the -cache-dir (delete unreferenced summaries, enforce -cache-budget) and exit")
	cacheBudget := flag.Int64("cache-budget", 0, "byte budget for -cache-gc (0 = delete only unreferenced summaries)")
	serverAddr := flag.String("server", "", "route the analysis through a running ipcpd at this address instead of analyzing in-process")
	metricsDump := flag.Bool("metrics", false, "with -server: print the daemon's /metrics exposition and exit")
	passes := flag.Bool("passes", false, "print the pass pipeline the configuration would run, then exit")
	tracePasses := flag.Bool("trace-passes", false, "print the per-pass execution table after analysis")
	debug := flag.Bool("debug", false, "verify the IR between passes and fail fast naming a corrupting pass")
	flag.Parse()

	j, ok := jumpNames[strings.ToLower(*jumpFlag)]
	if !ok {
		fmt.Fprintf(os.Stderr, "ipcp: unknown jump function %q\n", *jumpFlag)
		os.Exit(2)
	}

	if *passes {
		cfg := ipcp.Config{
			Jump:                j,
			ReturnJumpFunctions: !*noRet,
			MOD:                 !*noMod,
			Complete:            *complete,
		}
		fmt.Println(ipcp.DescribePipeline(cfg))
		return
	}

	if *cacheGC {
		if *cacheDir == "" {
			fmt.Fprintln(os.Stderr, "ipcp: -cache-gc requires -cache-dir")
			os.Exit(2)
		}
		st, err := ipcp.CacheGC(*cacheDir, *cacheBudget)
		if err != nil {
			cli.Fatal("ipcp", err)
		}
		fmt.Println(st)
		return
	}

	if *serverAddr != "" {
		if *all || *cloneFlag || *verify || *cacheDir != "" || *baseline != "" || *remoteCache != "" {
			fmt.Fprintln(os.Stderr, "ipcp: -server supports the plain analysis path (-emit, -constants, -stats, -trace-passes); run -all/-clone/-verify/-cache-dir/-remote-cache locally")
			os.Exit(2)
		}
		if *metricsDump {
			runRemoteMetrics(*serverAddr)
			return
		}
		cfg := ipcp.Config{
			Jump:                j,
			ReturnJumpFunctions: !*noRet,
			MOD:                 !*noMod,
			Complete:            *complete,
			Workers:             *workers,
		}
		if *suiteName == "" && len(flag.Args()) > 1 {
			// Several files: one /v1/batch request; a fleet daemon fans
			// them out across its worker shards.
			if *emit || *stats {
				fmt.Fprintln(os.Stderr, "ipcp: -emit and -stats work on a single input; batch mode prints per-file reports")
				os.Exit(2)
			}
			runRemoteBatch(*serverAddr, flag.Args(), cfg, remoteOpts{
				constants:   *listConstants,
				tracePasses: *tracePasses,
			})
			return
		}
		src, name, err := cli.Source(*suiteName, *scale, flag.Args())
		if err != nil {
			cli.Fatal("ipcp", err)
		}
		runRemote(*serverAddr, src, name, cfg, remoteOpts{
			emit:        *emit,
			constants:   *listConstants,
			stats:       *stats,
			tracePasses: *tracePasses,
		})
		return
	}

	prog, name, err := cli.Load(*suiteName, *scale, flag.Args())
	if err != nil {
		cli.Fatal("ipcp", err)
	}

	if *stats {
		st := prog.Stats()
		fmt.Printf("%s: %d lines, %d procedures, %d call sites, %.1f mean / %.1f median lines per procedure\n",
			name, st.Lines, st.Procedures, st.CallSites, st.MeanLinesPerProc, st.MedianLinesPerProc)
	}

	if *all {
		var cfgs []ipcp.Config
		for _, j := range ipcp.JumpFunctions {
			cfgs = append(cfgs, ipcp.Config{
				Jump:                j,
				ReturnJumpFunctions: !*noRet,
				MOD:                 !*noMod,
				Complete:            *complete,
				Workers:             *workers,
			})
		}
		// The four flavors run sequentially through one shared cache,
		// each under its own keys; the hits column shows the records an
		// earlier sweep over the same cache left for each flavor. With
		// -cache-dir each flavor also keeps its snapshot, under the
		// name a single-flavor run uses, so -cache-gc keeps the
		// records every flavor stored.
		cache := openCache(*cacheDir, *remoteCache)
		fmt.Printf("%-16s  %12s  %10s  %6s\n", "jump function", "substituted", "constants", "hits")
		for _, cfg := range cfgs {
			prev := loadSnapshot(*cacheDir, cfg, cache)
			rep, snap := prog.AnalyzeIncremental(cfg, prev, cache)
			reportStoreErr(rep.Incremental)
			saveSnapshot(*cacheDir, cfg, snap)
			fmt.Printf("%-16s  %12d  %10d  %6d\n",
				cfg.Jump, rep.TotalSubstituted, rep.TotalConstants, rep.Incremental.CacheHits)
		}
		if *tracePasses {
			fmt.Println(cache.Stats())
		}
		return
	}

	if *cloneFlag {
		out := prog.AnalyzeWithCloning(ipcp.Config{
			Jump:                j,
			ReturnJumpFunctions: !*noRet,
			MOD:                 !*noMod,
			Workers:             *workers,
			Debug:               *debug,
		}, ipcp.CloneOptions{})
		fmt.Printf("%s: goal-directed cloning with %s jump functions\n", name, j)
		fmt.Printf("  before: %d constants, %d references\n",
			out.Base.TotalConstants, out.Base.TotalSubstituted)
		fmt.Printf("  after:  %d constants, %d references (%d clones in %d rounds)\n",
			out.Final.TotalConstants, out.Final.TotalSubstituted, out.TotalClones, out.Rounds)
		if *tracePasses {
			fmt.Print(out.Final.PassTrace())
		}
		return
	}
	cfg := ipcp.Config{
		Jump:                j,
		ReturnJumpFunctions: !*noRet,
		MOD:                 !*noMod,
		Complete:            *complete,
		Workers:             *workers,
		Debug:               *debug,
	}
	var (
		rep   *ipcp.Report
		cache *ipcp.SummaryCache
	)
	if *cacheDir != "" || *baseline != "" || *remoteCache != "" {
		rep, cache = analyzeIncremental(prog, cfg, *cacheDir, *remoteCache, *baseline)
	} else {
		rep = prog.Analyze(cfg)
	}
	printSummary(name, cfg, rep)

	if *tracePasses {
		fmt.Print(rep.PassTrace())
		if cache != nil {
			fmt.Println(cache.Stats())
		}
	}

	if *emit {
		src, n, err := prog.TransformedSource(rep)
		if err != nil {
			cli.Fatal("ipcp", err)
		}
		fmt.Printf("! transformed source: %d references substituted\n%s", n, src)
	}

	if *verify {
		if verifyAgainstExecution(prog, rep) {
			fmt.Println("  verification: every constant matches observed execution")
		} else {
			os.Exit(1)
		}
	}

	if *listConstants {
		printConstants(rep)
	}
}

// printSummary prints the standard report header and totals; the
// configuration decides which caveat suffixes appear.
func printSummary(name string, cfg ipcp.Config, rep *ipcp.Report) {
	fmt.Printf("%s: %s jump functions", name, cfg.Jump)
	if !cfg.ReturnJumpFunctions {
		fmt.Print(", no return JFs")
	}
	if !cfg.MOD {
		fmt.Print(", no MOD")
	}
	if cfg.Complete {
		fmt.Printf(", complete propagation (%d DCE rounds)", rep.DCERounds)
	}
	fmt.Println()
	fmt.Printf("  interprocedural constants: %d\n", rep.TotalConstants)
	fmt.Printf("  references substituted:    %d\n", rep.TotalSubstituted)
	fmt.Printf("  solver passes:             %d (%d jump-function evaluations)\n",
		rep.SolverPasses, rep.JFEvaluations)
	if st := rep.Incremental; st != nil {
		fmt.Printf("  incremental: %d/%d procedures re-analyzed, %d hits, %d misses (%.1f%% hit rate)\n",
			st.Reanalyzed, st.TotalProcedures, st.CacheHits, st.CacheMisses, 100*st.HitRate())
	}
}

// printConstants lists every CONSTANTS(p) entry (-constants).
func printConstants(rep *ipcp.Report) {
	for _, p := range rep.Procedures {
		if len(p.Constants) == 0 {
			continue
		}
		fmt.Printf("  CONSTANTS(%s):  [%d references substituted]\n", p.Name, p.Substituted)
		for _, c := range p.Constants {
			kind := "parameter"
			if c.Global {
				kind = "global"
			}
			fmt.Printf("    %-12s = %-8d (%s)\n", c.Name, c.Value, kind)
		}
	}
}

// openCache builds the summary cache the flags describe. A cache
// directory opens as memory in front of disk, in front of the remote
// when one is given, and every put is on disk before it returns.
// Without a directory the local tier is memory. Remote failures only
// cost recomputation, never correctness.
func openCache(cacheDir, remoteURL string) *ipcp.SummaryCache {
	if cacheDir != "" {
		cache, _, err := ipcp.NewDurableCache(ipcp.DurableCacheOptions{
			Dir:       cacheDir,
			RemoteURL: remoteURL,
		})
		if err != nil {
			cli.Fatal("ipcp", err)
		}
		return cache
	}
	local := ipcp.NewMemoryCache()
	if remoteURL == "" {
		return local
	}
	return ipcp.NewTieredCache(local, ipcp.NewRemoteCache(remoteURL))
}

// reportStoreErr prints the first summary a run failed to store. The
// run's results stand; a later run recomputes what is missing.
func reportStoreErr(st *ipcp.IncrementalStats) {
	if st.StoreErr != nil {
		fmt.Fprintf(os.Stderr, "ipcp: cache write: %v\n", st.StoreErr)
	}
}

// analyzeIncremental runs the program-database path: open the summary
// cache the flags describe, seed it from the previous on-disk snapshot
// and/or an in-process baseline analysis, analyze the program
// incrementally, and persist the new snapshot.
func analyzeIncremental(prog *ipcp.Program, cfg ipcp.Config, cacheDir, remoteURL, baseline string) (*ipcp.Report, *ipcp.SummaryCache) {
	cache := openCache(cacheDir, remoteURL)
	prev := loadSnapshot(cacheDir, cfg, cache)
	if baseline != "" {
		base, err := ipcp.LoadFile(baseline)
		if err != nil {
			cli.Fatal("ipcp", err)
		}
		var baseRep *ipcp.Report
		baseRep, prev = base.AnalyzeIncremental(cfg, prev, cache)
		reportStoreErr(baseRep.Incremental)
	}

	rep, snap := prog.AnalyzeIncremental(cfg, prev, cache)
	reportStoreErr(rep.Incremental)
	saveSnapshot(cacheDir, cfg, snap)
	return rep, cache
}

// snapshotPath names cfg's snapshot file in cacheDir by the
// configuration's cache key, so runs under different flags never
// cross-contaminate.
func snapshotPath(cacheDir string, cfg ipcp.Config) string {
	return filepath.Join(cacheDir, "snapshot-"+ipcp.FlavorCacheKey(cfg)[:16]+".snap")
}

// loadSnapshot returns cfg's previous snapshot in cacheDir, or nil
// without a cache directory or a readable snapshot.
func loadSnapshot(cacheDir string, cfg ipcp.Config, cache *ipcp.SummaryCache) *ipcp.Snapshot {
	if cacheDir == "" {
		return nil
	}
	s, err := ipcp.LoadSnapshot(snapshotPath(cacheDir, cfg), cache)
	if err != nil {
		return nil
	}
	return s
}

// saveSnapshot persists cfg's new snapshot in cacheDir, if there is
// one, replacing the previous run's file (Snapshot.Save skips the write
// when nothing changed).
func saveSnapshot(cacheDir string, cfg ipcp.Config, snap *ipcp.Snapshot) {
	if cacheDir == "" {
		return
	}
	if err := snap.Save(snapshotPath(cacheDir, cfg)); err != nil {
		cli.Fatal("ipcp", err)
	}
}

// verifyAgainstExecution runs the differential oracle over three input
// seeds and reports any constant execution contradicts.
func verifyAgainstExecution(prog *ipcp.Program, rep *ipcp.Report) bool {
	ok := true
	for seed := int64(0); seed < 3; seed++ {
		for _, v := range prog.VerifyConstants(rep, ipcp.ExecOptions{InputSeed: seed, Fuel: 50_000_000}) {
			fmt.Fprintf(os.Stderr, "  VIOLATION (seed %d): %s\n", seed, v)
			ok = false
		}
	}
	return ok
}
