// Package engine is the shared layer between the workloads (CG, ABFT-MM,
// Monte-Carlo) and the crash-consistence mechanisms they are evaluated
// under. It contributes four pieces:
//
//   - Scheme: a named consistency scheme (native, checkpoint variants,
//     PMEM-style transactions, the paper's algorithm-directed approach)
//     held in an instance-scoped Registry. A scheme knows which simulated
//     platform it runs on and how to build its per-run Guard.
//
//   - Workload: a crash-consistence study — a computation that runs from
//     an iteration boundary, recovers after a crash, and verifies its
//     result — implemented by all three of the paper's algorithms (and
//     their conventional-mechanism baselines) in internal/core.
//
//   - RunCases: the context-aware bounded worker pool every fan-out in
//     the repo goes through (harness experiment cases, campaign
//     injection shards), with index-ordered collection so aggregates are
//     byte-identical between serial and parallel runs.
//
//   - Event/EventSink: the streaming progress notifications emitted by
//     the executors in deterministic case-index order, consumed by the
//     harness drivers and re-exported to embedders through pkg/adcc.
//
// The experiment drivers in internal/harness iterate a registry instead
// of switching on case labels, and the workload loops in internal/core
// drive a Guard instead of switching on a mechanism enum, so adding a new
// scheme or workload is a one-file change.
package engine

import (
	"fmt"
	"sort"
	"sync"

	"adcc/internal/ckpt"
	"adcc/internal/crash"
)

// Kind classifies a scheme's mechanism family.
type Kind int

const (
	// KindNative runs with no fault-tolerance mechanism.
	KindNative Kind = iota
	// KindCheckpoint saves the protected regions at iteration
	// boundaries (to HDD or to NVM, per the scheme).
	KindCheckpoint
	// KindPMEM wraps iteration updates in undo-log transactions.
	KindPMEM
	// KindAlgo is the paper's algorithm-directed approach: the workload
	// itself maintains a restartable persistent image via selective
	// cache-line flushes.
	KindAlgo
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindNative:
		return "native"
	case KindCheckpoint:
		return "checkpoint"
	case KindPMEM:
		return "pmem"
	case KindAlgo:
		return "algo"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// FlushPolicy selects which critical state an algorithm-directed scheme
// flushes per iteration. Only Monte-Carlo distinguishes the variants
// (paper §III-D); CG and MM have a single algorithm-directed design.
type FlushPolicy int

const (
	// FlushNone flushes nothing (non-algo schemes).
	FlushNone FlushPolicy = iota
	// FlushIndexOnly is the paper's rejected "basic idea": flush only
	// the loop-index line each iteration (Figure 9/10 bias).
	FlushIndexOnly
	// FlushSelective flushes the full critical state every flush
	// period (Figure 11, the paper's extension).
	FlushSelective
	// FlushEveryIter flushes the critical state on every iteration —
	// the rejected design the paper measures at ~16% overhead.
	FlushEveryIter
)

// Scheme is one consistency scheme of the paper's comparison. Scheme
// values are immutable and safe for concurrent use; per-run state lives
// in the Guard a scheme builds.
type Scheme interface {
	// Name is the registry key and the row label used in result tables.
	Name() string
	// Kind reports the mechanism family.
	Kind() Kind
	// System is the simulated platform the scheme runs on in the
	// paper's seven-case comparison.
	System() crash.SystemKind
	// FlushPolicy reports the algorithm-directed flush variant
	// (FlushNone for non-algo schemes).
	FlushPolicy() FlushPolicy
	// NewGuard binds the scheme to a machine. logElems sizes the undo
	// log of transactional schemes (ignored by the others).
	NewGuard(m *crash.Machine, logElems int) Guard
}

// Registry scheme names. The first seven are the paper's presentation
// order (§III-A); the last two are the Monte-Carlo-specific
// algorithm-directed variants of §III-D.
const (
	SchemeNative     = "native"
	SchemeCkptHDD    = "ckpt-HDD"
	SchemeCkptNVM    = "ckpt-NVM-only"
	SchemeCkptHetero = "ckpt-NVM/DRAM"
	SchemePMEM       = "PMEM-lib"
	SchemeAlgoNVM    = "algo-NVM-only"
	SchemeAlgoHetero = "algo-NVM/DRAM"
	SchemeAlgoNaive  = "algo-naive"
	SchemeAlgoEvery  = "algo-every-iter"
)

// scheme is the standard Scheme implementation.
type scheme struct {
	name   string
	kind   Kind
	system crash.SystemKind
	flush  FlushPolicy
	// ckptHDD selects the HDD checkpoint target for KindCheckpoint.
	ckptHDD bool
}

func (s *scheme) Name() string             { return s.name }
func (s *scheme) Kind() Kind               { return s.kind }
func (s *scheme) System() crash.SystemKind { return s.system }
func (s *scheme) FlushPolicy() FlushPolicy { return s.flush }

func (s *scheme) NewGuard(m *crash.Machine, logElems int) Guard {
	switch s.kind {
	case KindCheckpoint:
		if s.ckptHDD {
			return NewCheckpointGuard(ckpt.NewHDD(m))
		}
		return NewCheckpointGuard(ckpt.NewNVM(m))
	case KindPMEM:
		return NewPMEMGuard(m, logElems)
	default:
		return NewNativeGuard()
	}
}

// Registry is an instance-scoped registry of schemes and workload
// families. Each Registry is an independent namespace: embedders build
// their own (usually via pkg/adcc, which seeds the built-ins), register
// custom schemes and workloads without init-order coupling, and hand the
// registry to the runner or campaign that should see it. All methods are
// safe for concurrent use — the experiment drivers read registries from
// worker goroutines.
//
// The zero value is not usable; call NewRegistry or NewBuiltinRegistry.
type Registry struct {
	mu       sync.RWMutex
	schemes  map[string]Scheme
	families []Family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{schemes: map[string]Scheme{}}
}

// NewBuiltinRegistry returns a registry seeded with the paper's nine
// schemes: the seven-case comparison (§III-A) plus the two
// Monte-Carlo-specific algorithm-directed variants (§III-D).
func NewBuiltinRegistry() *Registry {
	r := NewRegistry()
	for _, s := range []*scheme{
		{name: SchemeNative, kind: KindNative, system: crash.NVMOnly},
		{name: SchemeCkptHDD, kind: KindCheckpoint, system: crash.NVMOnly, ckptHDD: true},
		{name: SchemeCkptNVM, kind: KindCheckpoint, system: crash.NVMOnly},
		{name: SchemeCkptHetero, kind: KindCheckpoint, system: crash.Hetero},
		{name: SchemePMEM, kind: KindPMEM, system: crash.NVMOnly},
		{name: SchemeAlgoNVM, kind: KindAlgo, system: crash.NVMOnly, flush: FlushSelective},
		{name: SchemeAlgoHetero, kind: KindAlgo, system: crash.Hetero, flush: FlushSelective},
		{name: SchemeAlgoNaive, kind: KindAlgo, system: crash.NVMOnly, flush: FlushIndexOnly},
		{name: SchemeAlgoEvery, kind: KindAlgo, system: crash.NVMOnly, flush: FlushEveryIter},
	} {
		if err := r.Register(s); err != nil {
			panic("engine: " + err.Error())
		}
	}
	return r
}

// Register adds a scheme to the registry. Registering a nil or unnamed
// scheme, or a name already present, returns an error: schemes are
// identities, not configuration, so a conflict is always a caller bug
// the caller must decide about.
func (r *Registry) Register(s Scheme) error {
	if s == nil || s.Name() == "" {
		return fmt.Errorf("Register of unnamed scheme")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.schemes[s.Name()]; dup {
		return fmt.Errorf("duplicate scheme %q", s.Name())
	}
	r.schemes[s.Name()] = s
	return nil
}

// Lookup finds a scheme by name.
func (r *Registry) Lookup(name string) (Scheme, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.schemes[name]
	return s, ok
}

// MustLookup finds a scheme by name, panicking on unknown names. Use for
// the built-in names, which NewBuiltinRegistry seeds unconditionally.
func (r *Registry) MustLookup(name string) Scheme {
	s, ok := r.Lookup(name)
	if !ok {
		panic(fmt.Sprintf("engine: unknown scheme %q", name))
	}
	return s
}

// Names returns every registered scheme name, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.schemes))
	for n := range r.schemes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// SevenCases returns the paper's seven-case comparison in presentation
// order (§III-A). It panics if any of the seven built-in names is
// missing from the registry (custom registries keep the built-ins; see
// NewBuiltinRegistry).
func (r *Registry) SevenCases() []Scheme {
	names := []string{
		SchemeNative, SchemeCkptHDD, SchemeCkptNVM, SchemeCkptHetero,
		SchemePMEM, SchemeAlgoNVM, SchemeAlgoHetero,
	}
	out := make([]Scheme, len(names))
	for i, n := range names {
		out[i] = r.MustLookup(n)
	}
	return out
}

// defaultRegistry is the process-global registry behind the
// package-level functions. Internal callers that predate instance
// registries still resolve built-in scheme names through it.
var defaultRegistry = NewBuiltinRegistry()

// MustLookup finds a scheme by name in the process-global registry,
// panicking on unknown names. It is a compatibility shim for internal
// callers; new code should resolve names on an instance Registry.
func MustLookup(name string) Scheme { return defaultRegistry.MustLookup(name) }

// SevenCases returns the paper's seven-case comparison from the
// process-global registry. It is a compatibility shim for internal
// callers; new code should use an instance Registry.
func SevenCases() []Scheme { return defaultRegistry.SevenCases() }
