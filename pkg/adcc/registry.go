package adcc

import (
	"fmt"
	"sort"

	"adcc/internal/engine"
	"adcc/internal/families"
	"adcc/internal/kvlog"
	"adcc/internal/stencil"
)

// Scheme is one named consistency scheme: it knows its mechanism
// family, the simulated platform it runs on, and how to build its
// per-run Guard. Custom schemes implement the interface and are added
// to a Registry with RegisterScheme.
type Scheme = engine.Scheme

// SchemeKind classifies a scheme's mechanism family.
type SchemeKind = engine.Kind

// Mechanism families.
const (
	// KindNative runs with no fault-tolerance mechanism.
	KindNative = engine.KindNative
	// KindCheckpoint saves the protected regions at iteration
	// boundaries.
	KindCheckpoint = engine.KindCheckpoint
	// KindPMEM wraps iteration updates in undo-log transactions.
	KindPMEM = engine.KindPMEM
	// KindAlgo is the paper's algorithm-directed approach.
	KindAlgo = engine.KindAlgo
)

// FlushPolicy selects an algorithm-directed scheme's flush variant.
type FlushPolicy = engine.FlushPolicy

// Flush variants (paper §III-D).
const (
	// FlushNone flushes nothing (non-algo schemes).
	FlushNone = engine.FlushNone
	// FlushIndexOnly is the paper's rejected index-only design.
	FlushIndexOnly = engine.FlushIndexOnly
	// FlushSelective is the paper's selective-flushing extension.
	FlushSelective = engine.FlushSelective
	// FlushEveryIter flushes on every iteration (~16% overhead).
	FlushEveryIter = engine.FlushEveryIter
)

// Built-in scheme names; NewRegistry seeds all nine. The first seven
// are the paper's presentation order (§III-A), the last two the
// Monte-Carlo-specific variants (§III-D).
const (
	SchemeNative     = engine.SchemeNative
	SchemeCkptHDD    = engine.SchemeCkptHDD
	SchemeCkptNVM    = engine.SchemeCkptNVM
	SchemeCkptHetero = engine.SchemeCkptHetero
	SchemePMEM       = engine.SchemePMEM
	SchemeAlgoNVM    = engine.SchemeAlgoNVM
	SchemeAlgoHetero = engine.SchemeAlgoHetero
	SchemeAlgoNaive  = engine.SchemeAlgoNaive
	SchemeAlgoEvery  = engine.SchemeAlgoEvery
)

// Built-in workload names; NewRegistry seeds all five (the paper's three
// studies plus the stencil and served-traffic KV extension families).
const (
	WorkloadCG      = "cg"
	WorkloadMM      = "mm"
	WorkloadMC      = "mc"
	WorkloadStencil = stencil.WorkloadName
	WorkloadKVLog   = kvlog.WorkloadName
)

// WorkloadSpec describes a runnable workload: a name and a factory
// building a fresh Workload instance for one run under a scheme at a
// problem scale (1.0 = paper shape). Specs are registered on a
// Registry and swept by Runner.Run and Runner.RunCampaign alike.
type WorkloadSpec struct {
	// Name identifies the workload in the registry and in reports.
	Name string
	// Schemes names the schemes the workload is swept under, as written,
	// by both Runner.Run and campaigns. Nil means the workload has no
	// scheme-selected variants: Run sweeps the paper's seven-case
	// comparison, and a campaign — where the platform is its own axis —
	// sweeps the five conventional schemes plus algo-NVM-only.
	Schemes []string
	// New builds a fresh instance for one run under sc. It must return
	// an unprepared workload: the runner binds it to a machine through
	// Workload.Prepare.
	New func(sc Scheme, scale float64) (Workload, error)
}

// Registry is an instance-scoped namespace of consistency schemes and
// workloads. Registries are independent: registering on one never
// affects another, so embedders compose custom schemes and workloads
// without init-order coupling or process-global state. All methods are
// safe for concurrent use.
type Registry struct {
	eng *engine.Registry // schemes and the workload table
}

// NewRegistry returns a registry seeded with the paper's nine built-in
// schemes and the five built-in workloads.
func NewRegistry() *Registry {
	return &Registry{eng: families.NewRegistry()}
}

// RegisterScheme adds a custom scheme. Registering a nil or unnamed
// scheme, or a name already present, returns an error.
func (r *Registry) RegisterScheme(s Scheme) error {
	if err := r.eng.Register(s); err != nil {
		return fmt.Errorf("adcc: %w", err)
	}
	return nil
}

// Scheme finds a scheme by name.
func (r *Registry) Scheme(name string) (Scheme, bool) {
	return r.eng.Lookup(name)
}

// MustScheme finds a scheme by name, panicking on unknown names. Use
// for the built-in names, which NewRegistry seeds unconditionally.
func (r *Registry) MustScheme(name string) Scheme {
	return r.eng.MustLookup(name)
}

// SchemeNames returns every registered scheme name, sorted.
func (r *Registry) SchemeNames() []string { return r.eng.Names() }

// SevenCases returns the paper's seven-case comparison in presentation
// order (§III-A).
func (r *Registry) SevenCases() []Scheme { return r.eng.SevenCases() }

// RegisterWorkload appends a workload spec to the registry's workload
// table: Runner.Run sweeps it by name, and campaigns (RunCampaign, result
// stores, adccd) sweep its cells after those of the entries before it.
// An empty name, a nil factory, or a name already present is an error.
func (r *Registry) RegisterWorkload(spec WorkloadSpec) error {
	f := engine.Family{Name: spec.Name, Schemes: spec.Schemes}
	if spec.New != nil {
		f.New = func(sc Scheme, scale float64, _ any) (Workload, error) { return spec.New(sc, scale) }
	}
	if err := r.eng.RegisterFamily(f); err != nil {
		return fmt.Errorf("adcc: %w", err)
	}
	return nil
}

// Workload finds a workload by name, as a spec: a view of its table
// entry whose New builds the entry's shared inputs for the one instance.
func (r *Registry) Workload(name string) (WorkloadSpec, bool) {
	f, ok := r.eng.Family(name)
	if !ok {
		return WorkloadSpec{}, false
	}
	return WorkloadSpec{
		Name:    f.Name,
		Schemes: f.Schemes,
		New: func(sc Scheme, scale float64) (Workload, error) {
			return f.New(sc, scale, f.SharedAt(scale))
		},
	}, true
}

// WorkloadNames returns every registered workload name, sorted.
func (r *Registry) WorkloadNames() []string {
	fams := r.eng.Families()
	out := make([]string, len(fams))
	for i, f := range fams {
		out[i] = f.Name
	}
	sort.Strings(out)
	return out
}
