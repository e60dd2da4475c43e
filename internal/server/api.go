// Package server implements ipcpd, the resident analysis server: a
// long-running daemon that keeps the summary cache and per-program
// snapshots hot in memory and serves interprocedural constant
// propagation queries over HTTP — the ParaScope program database as a
// network service (see DESIGN.md, "The analysis server").
//
// The serving core is production-shaped: a bounded worker pool behind
// a bounded admission queue (full queue = 429 + Retry-After),
// per-request deadlines wired through context.Context into the
// analysis pipeline's cancellation hook, singleflight coalescing of
// identical concurrent requests, incremental re-analysis against the
// resident snapshot of each program lineage, Prometheus-style metrics,
// and graceful shutdown that drains in-flight work.
package server

import (
	"fmt"
	"strings"

	"ipcp"
)

// This file defines the JSON wire protocol. Everything a client posts
// or receives round-trips through these types; internal/server/client
// is the typed client over them.

// ConfigRequest selects an analysis configuration on the wire. The
// jump-function flavor travels as a lower-case name for curl-ability;
// the boolean toggles that default to *on* in the paper's recommended
// configuration (return jump functions, MOD) are pointers so that an
// omitted field means "recommended", not "off".
type ConfigRequest struct {
	// Jump is the forward jump-function flavor: "literal", "intra",
	// "passthrough" (default), or "polynomial".
	Jump string `json:"jump,omitempty"`

	// ReturnJumpFunctions and MOD default to true when omitted.
	ReturnJumpFunctions *bool `json:"return_jump_functions,omitempty"`
	MOD                 *bool `json:"mod,omitempty"`

	// Complete iterates propagation with dead-code elimination.
	Complete bool `json:"complete,omitempty"`

	// DependenceSolver selects the dependence-driven solver.
	DependenceSolver bool `json:"dependence_solver,omitempty"`

	// Workers bounds the per-request analysis pipeline's own fan-out
	// (0 = server default of 1: the server parallelizes across
	// requests, not within them).
	Workers int `json:"workers,omitempty"`
}

// jumpNames maps wire names to flavors (ParseJump accepts them
// case-insensitively).
var jumpNames = map[string]ipcp.JumpFunction{
	"literal":     ipcp.Literal,
	"intra":       ipcp.Intraprocedural,
	"passthrough": ipcp.PassThrough,
	"polynomial":  ipcp.Polynomial,
}

// ParseJump resolves a wire jump-function name ("" = passthrough).
func ParseJump(name string) (ipcp.JumpFunction, error) {
	if name == "" {
		return ipcp.PassThrough, nil
	}
	if j, ok := jumpNames[strings.ToLower(name)]; ok {
		return j, nil
	}
	return 0, fmt.Errorf("unknown jump function %q (have literal, intra, passthrough, polynomial)", name)
}

// JumpName renders a flavor as its wire name.
func JumpName(j ipcp.JumpFunction) string {
	switch j {
	case ipcp.Literal:
		return "literal"
	case ipcp.Intraprocedural:
		return "intra"
	case ipcp.PassThrough:
		return "passthrough"
	default:
		return "polynomial"
	}
}

// Config resolves the request to an ipcp.Config, applying the
// defaults (passthrough flavor, return JFs and MOD on).
func (c ConfigRequest) Config() (ipcp.Config, error) {
	j, err := ParseJump(c.Jump)
	if err != nil {
		return ipcp.Config{}, err
	}
	cfg := ipcp.Config{
		Jump:                j,
		ReturnJumpFunctions: c.ReturnJumpFunctions == nil || *c.ReturnJumpFunctions,
		MOD:                 c.MOD == nil || *c.MOD,
		Complete:            c.Complete,
		DependenceSolver:    c.DependenceSolver,
		Workers:             c.Workers,
	}
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	return cfg, nil
}

// ConfigOf spells an ipcp.Config as a wire request, every field
// explicit (the typed client uses it so round trips are exact).
func ConfigOf(cfg ipcp.Config) ConfigRequest {
	ret, mod := cfg.ReturnJumpFunctions, cfg.MOD
	return ConfigRequest{
		Jump:                JumpName(cfg.Jump),
		ReturnJumpFunctions: &ret,
		MOD:                 &mod,
		Complete:            cfg.Complete,
		DependenceSolver:    cfg.DependenceSolver,
		Workers:             cfg.Workers,
	}
}

// AnalyzeRequest is the body of POST /v1/analyze.
type AnalyzeRequest struct {
	// Source is the MiniFortran program text.
	Source string `json:"source"`

	// Program optionally names the snapshot lineage this source belongs
	// to: successive requests naming the same program re-analyze
	// incrementally against the previous request's snapshot, so an
	// edited source only re-analyzes the procedures the edit
	// invalidated. Anonymous requests ("") share one lineage.
	Program string `json:"program,omitempty"`

	// Config selects the analysis configuration.
	Config ConfigRequest `json:"config"`

	// TimeoutMS overrides the server's default per-request deadline
	// (bounded by the server's maximum).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// AnalyzeResponse is the body of a successful POST /v1/analyze.
type AnalyzeResponse struct {
	// Report is the full analysis report, including incremental-reuse
	// statistics for warm lineages.
	Report *ipcp.Report `json:"report"`

	// Coalesced reports that this response shares the work of an
	// identical concurrent request instead of a run of its own.
	Coalesced bool `json:"coalesced,omitempty"`
}

// TransformRequest is the body of POST /v1/transform.
type TransformRequest struct {
	Source    string        `json:"source"`
	Program   string        `json:"program,omitempty"`
	Config    ConfigRequest `json:"config"`
	TimeoutMS int64         `json:"timeout_ms,omitempty"`
}

// TransformResponse carries the constant-substituted source.
type TransformResponse struct {
	// Source is the transformed program text with every safely
	// substitutable interprocedural constant replaced by its literal.
	Source string `json:"source"`

	// Substituted counts the references replaced in Source.
	Substituted int `json:"substituted"`

	Coalesced bool `json:"coalesced,omitempty"`
}

// BatchRequest is the body of POST /v1/batch: N independent sources
// analyzed in one request. Items fan out concurrently — across the
// worker pool on a single server, across shards behind a fleet router
// — and each item succeeds or fails on its own (partial-failure
// semantics: the batch itself answers 200 whenever it was well-formed,
// and every item carries its own status).
type BatchRequest struct {
	// Items are the sources to analyze, at most MaxBatchItems of them.
	Items []BatchItem `json:"items"`

	// Config is the default configuration for items that do not carry
	// their own.
	Config ConfigRequest `json:"config"`

	// TimeoutMS is the default per-item deadline for items that do not
	// carry their own (each item gets its own deadline; a slow item
	// times out alone).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// AnalyzeRequest is item i as the standalone /v1/analyze request it is
// served as: the batch's config and deadline apply unless the item sets
// its own.
func (r BatchRequest) AnalyzeRequest(i int) AnalyzeRequest {
	item := r.Items[i]
	req := AnalyzeRequest{Source: item.Source, Program: item.Program, Config: r.Config, TimeoutMS: r.TimeoutMS}
	if item.Config != nil {
		req.Config = *item.Config
	}
	if item.TimeoutMS > 0 {
		req.TimeoutMS = item.TimeoutMS
	}
	return req
}

// BatchItem is one source in a batch.
type BatchItem struct {
	Source string `json:"source"`

	// Program names the item's snapshot lineage, exactly as in
	// AnalyzeRequest. Behind a fleet router the lineage also decides
	// which shard serves the item.
	Program string `json:"program,omitempty"`

	// Config, when non-nil, overrides the batch-level default.
	Config *ConfigRequest `json:"config,omitempty"`

	// TimeoutMS, when positive, overrides the batch-level default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// BatchItemResult is one line of the /v1/batch response stream. The
// response body is NDJSON — one BatchItemResult per line, written in
// completion order, so a client can act on early items while slow ones
// are still running. Index ties a line back to the request's Items.
type BatchItemResult struct {
	// Index is the item's position in BatchRequest.Items.
	Index int `json:"index"`

	// Status is the item's own HTTP-style status: 200 with a Report on
	// success, else the code a standalone /v1/analyze would have
	// answered (400, 429, 500, 502, 503, 504) with Error set.
	Status int `json:"status"`

	// Shard is the worker that served the item behind a fleet router
	// (-1 on a single-process server).
	Shard int `json:"shard"`

	Report    *ipcp.Report `json:"report,omitempty"`
	Error     string       `json:"error,omitempty"`
	Coalesced bool         `json:"coalesced,omitempty"`
}

// OK reports whether the item succeeded.
func (r BatchItemResult) OK() bool { return r.Status/100 == 2 }

// MatrixResponse is the body of GET /v1/matrix?program=NAME: the full
// jump-function × MOD × return-JF configuration sweep (the paper's
// Tables 2 and 3) over one named corpus program.
type MatrixResponse struct {
	// Program and Scale identify the generated corpus program.
	Program string `json:"program"`
	Scale   int    `json:"scale"`

	// Configs and Reports are parallel, in ipcp.FullMatrix order.
	Configs []ConfigRequest `json:"configs"`
	Reports []*ipcp.Report  `json:"reports"`

	Coalesced bool `json:"coalesced,omitempty"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}
