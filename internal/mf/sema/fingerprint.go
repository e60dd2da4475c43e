package sema

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"

	"ipcp/internal/mf/ast"
	"ipcp/internal/par"
)

// This file gives every program unit a stable fingerprint, the
// foundation of the incremental re-analysis engine (internal/incr): a
// procedure's summary may be reused across runs exactly when its
// fingerprint — and those of the procedures it transitively calls —
// are unchanged. Fingerprints hash the *normalized* pretty-printed
// source, so formatting-only edits (whitespace, comments, line breaks,
// `&` continuations, letter case, `END name`, and parentheses the
// printer drops as redundant) never invalidate a summary;
// TestFormattingEditsReanalyzeNothing pins that. Hashing the token
// stream instead would be cheaper but would not be normalized: the
// token stream keeps redundant parentheses, so a source the printer
// rewrote would re-analyze every procedure.

// unitBufs recycles the buffers units are printed into for hashing.
var unitBufs = sync.Pool{New: func() any { return new([]byte) }}

// UnitHash returns the hex SHA-256 of a unit's normalized source: the
// unit as the AST printer renders it, printed into a reused buffer.
func UnitHash(u *UnitInfo) string {
	buf := unitBufs.Get().(*[]byte)
	*buf = ast.AppendUnit((*buf)[:0], u.Unit)
	sum := sha256.Sum256(*buf)
	unitBufs.Put(buf)
	return hex.EncodeToString(sum[:])
}

// Fingerprints returns the UnitHash of every unit, keyed by unit name
// (unit names are unique — sema enforces it). Units hash independently,
// so the work fans out over up to workers goroutines (par.For's rule:
// 0 means one per CPU); the result does not depend on scheduling.
func (p *Program) Fingerprints(workers int) map[string]string {
	hashes := make([]string, len(p.Units))
	par.For(workers, len(p.Units), func(i int) {
		hashes[i] = UnitHash(p.Units[i])
	})
	fps := make(map[string]string, len(p.Units))
	for i, u := range p.Units {
		fps[u.Name] = hashes[i]
	}
	return fps
}

// GlobalsSchema renders the program's COMMON-block layout — every
// global in dense ID order with its block, position, name, type, and
// dimensions. Two programs with equal schemas agree about the identity
// and numbering of every global, which is what stored summaries that
// mention globals by ID depend on.
func (p *Program) GlobalsSchema() string {
	var sb strings.Builder
	for _, g := range p.Globals {
		fmt.Fprintf(&sb, "%d %s %d %s %s %v\n", g.ID, g.Block, g.Index, g.Name, g.Type, g.Dims)
	}
	return sb.String()
}

// GlobalsHash returns the hex SHA-256 of the globals schema.
func (p *Program) GlobalsHash() string {
	sum := sha256.Sum256([]byte(p.GlobalsSchema()))
	return hex.EncodeToString(sum[:])
}
