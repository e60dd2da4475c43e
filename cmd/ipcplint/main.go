// Command ipcplint runs the repo's invariant-checker suite
// (internal/lint): five custom static analyzers encoding the
// correctness invariants the analyzer itself rests on — deterministic
// iteration order at every emission/hash site (mapiter), monotone
// lattice descent (latticeflow), cancellation polling in unbounded
// loops (cancelpoll), the durability ack contract on codec/WAL/store
// errors (codecerr), and a /metrics exposition that matches its
// declarations (metricreg).
//
// It runs as a vet tool:
//
//	go vet -vettool=$(pwd)/ipcplint [-only=a,b] ./...
//	ipcplint -list                       # name the analyzers
//
// Diagnostics print as `file:line:col: message [analyzer]`; the exit
// code is 2 when any were found. False positives are suppressed in
// place with `//lint:ignore <analyzers> <reason>` — see the package
// documentation of internal/lint for the suppression policy.
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ipcp/internal/lint"
	"ipcp/internal/lint/driver"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	// cmd/go probes `<tool> -V=full` for a content-based tool ID and
	// `<tool> -flags` for the flags it may pass through; answer both
	// before ordinary flag parsing so the probes never trip over suite
	// flags.
	for _, a := range args {
		if a == "-V=full" || a == "-V" {
			fmt.Fprintf(stdout, "ipcplint version devel buildID=%s\n", selfID())
			return 0
		}
		if a == "-flags" {
			fmt.Fprintln(stdout, `[{"Name":"only","Bool":false,"Usage":"comma-separated analyzer names to run (default: all)"}]`)
			return 0
		}
	}

	fs := flag.NewFlagSet("ipcplint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and exit")
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: go vet -vettool=/path/to/ipcplint [-only=a,b] ./...\n")
		fmt.Fprintf(stderr, "       ipcplint -list\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 1
	}

	analyzers, err := lint.Select(lint.All(), *only)
	if err != nil {
		fmt.Fprintf(stderr, "ipcplint: %v\n", err)
		return 1
	}

	if *list {
		for _, a := range lint.All() {
			doc := a.Doc
			if i := strings.IndexByte(doc, '\n'); i >= 0 {
				doc = doc[:i]
			}
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, doc)
		}
		return 0
	}

	// cmd/go invokes the tool with a single JSON config argument per
	// compilation unit.
	rest := fs.Args()
	if len(rest) != 1 || !strings.HasSuffix(rest[0], ".cfg") {
		fs.Usage()
		return 1
	}
	return driver.RunVet(rest[0], analyzers, stderr)
}

// selfID hashes the running binary so cmd/go's action cache
// invalidates whenever the tool itself changes.
func selfID() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}
