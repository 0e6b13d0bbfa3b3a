// Package bench is the machine-readable benchmark model behind the
// repo's perf pipeline: a Result/Suite data model with a stable JSON
// encoding, a concurrency-safe Collector that the harness experiment
// drivers feed per-case simulated timings into, the kernel probes run
// by `adccbench -bench`, and the comparison logic behind cmd/benchdiff.
//
// Every metric of a Result (sim_ns, sim_flushes, recovery_sim_ns,
// injections, failures) is read off the deterministic simulation — a
// pure function of code, scale and seed, identical across hosts — so
// even small drift is a meaningful semantic change and is gated
// tightly. Host wall time has no place here: it is measured, with
// repeats and a spread, by benchmark/ and recorded in
// BENCH_history.ndjson.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
)

// SchemaVersion identifies the JSON layout of a Suite. cmd/benchdiff
// refuses to compare files with mismatched schemas; bump only with a
// migration note in README.md.
const SchemaVersion = "adcc-bench/v1"

// Result is one named measurement. Zero-valued fields are omitted from
// the JSON encoding, so kernel probes, harness cases and campaign cells
// share one shape. Files written before the host wall-clock keys
// (iterations, ns_per_op, allocs_per_op, bytes_per_op,
// wall_ns_per_injection) were retired still decode: the decoder ignores
// them.
type Result struct {
	// Name identifies the measured unit, e.g. "cache/flush" for a
	// kernel probe or "fig4/algo-nvm" for a harness case.
	Name string `json:"name"`
	// SimNS is the deterministic simulated-clock duration of the
	// measured unit (one harness case, or a kernel's fixed probe loop).
	SimNS int64 `json:"sim_ns,omitempty"`
	// SimFlushes counts simulated cache-line flushes issued by the
	// measured unit.
	SimFlushes int64 `json:"sim_flushes,omitempty"`
	// RecoveryNS is the simulated post-crash detection time, for cases
	// that exercise a recovery protocol.
	RecoveryNS int64 `json:"recovery_sim_ns,omitempty"`
	// Injections and Failures summarize a fault-injection campaign
	// cell (internal/campaign): how many crash points were swept and
	// how many ended without a verified result (silent corruption or
	// unrecoverable state). Failures is gated as a deterministic
	// metric, so a recovery-rate regression fails benchdiff.
	Injections int64 `json:"injections,omitempty"`
	Failures   int64 `json:"failures,omitempty"`
}

// Suite is a full benchmark run: schema tag, the harness scale it ran
// at, and the results sorted by name (the sort is what makes the
// encoding stable across collection order).
type Suite struct {
	Schema  string   `json:"schema"`
	Scale   float64  `json:"scale,omitempty"`
	Results []Result `json:"results"`
}

// NewSuite assembles a schema-tagged suite with the results sorted by
// name.
func NewSuite(scale float64, results []Result) Suite {
	out := make([]Result, len(results))
	copy(out, results)
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return Suite{Schema: SchemaVersion, Scale: scale, Results: out}
}

// EncodeJSON renders the suite in its canonical form: two-space
// indentation, struct field order, trailing newline. Byte-stable for
// equal contents.
func (s Suite) EncodeJSON() ([]byte, error) {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteFile writes the canonical encoding to path.
func (s Suite) WriteFile(path string) error {
	b, err := s.EncodeJSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// ReadFile parses a suite and validates its schema tag.
func ReadFile(path string) (Suite, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Suite{}, err
	}
	var s Suite
	if err := json.Unmarshal(b, &s); err != nil {
		return Suite{}, fmt.Errorf("bench: %s: %w", path, err)
	}
	if s.Schema != SchemaVersion {
		return Suite{}, fmt.Errorf("bench: %s: schema %q, want %q", path, s.Schema, SchemaVersion)
	}
	return s, nil
}

// byName indexes results for diffing. Duplicate names must be rejected
// with Validate before indexing — in a plain map the last one would
// silently win.
func (s Suite) byName() map[string]Result {
	m := make(map[string]Result, len(s.Results))
	for _, r := range s.Results {
		m[r.Name] = r
	}
	return m
}

// Validate rejects suites whose benchmark names collide: a duplicate
// would silently shadow its twin in every comparison, so a diff over
// such a suite proves nothing about the hidden result.
func (s Suite) Validate() error {
	seen := make(map[string]bool, len(s.Results))
	for _, r := range s.Results {
		if seen[r.Name] {
			return fmt.Errorf("bench: duplicate benchmark name %q in suite", r.Name)
		}
		seen[r.Name] = true
	}
	return nil
}

// Collector accumulates Results from concurrently executing experiment
// cases. A nil *Collector is a valid no-op receiver, so harness drivers
// record unconditionally. Snapshots are sorted, making the collected
// suite independent of case execution order (and therefore identical
// between serial and -parallel runs).
type Collector struct {
	mu      sync.Mutex
	results map[string]Result
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{results: map[string]Result{}}
}

// Record stores r, replacing any previous result with the same name.
// Safe for concurrent use; no-op on a nil collector.
func (c *Collector) Record(r Result) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.results[r.Name] = r
}

// Len returns the number of distinct results recorded.
func (c *Collector) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.results)
}

// Results returns a name-sorted snapshot.
func (c *Collector) Results() []Result {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Result, 0, len(c.results))
	for _, r := range c.results {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
