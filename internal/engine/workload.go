package engine

import (
	"fmt"
	"slices"

	"adcc/internal/crash"
)

// Workload is one crash-consistence study: a computation that can run
// from an iteration boundary, recover after an injected crash, and
// verify its final result. Five families implement it: CG, ABFT-MM and
// Monte-Carlo in internal/core, the heat stencil in internal/stencil and
// the KV/log store in internal/kvlog. Each package's tests drive its
// workloads through the lifecycle below.
//
// The lifecycle is:
//
//	w.Prepare(m, em)        // allocate state on the machine
//	em.Run(func(){ w.Run(w.Start()) })  // fresh run, possibly crashing
//	from, err := w.Recover()            // after a crash+restart
//	w.Run(from)                         // complete the computation
//	err = w.Verify()                    // check the result
//	stats := w.Metrics()                // workload-specific measurements
type Workload interface {
	// Name identifies the workload ("cg", "mm", "mc", "stencil", "kvlog").
	Name() string
	// Prepare allocates the workload's state on the machine. em may be
	// nil when no crash will be injected. Prepare must be called
	// exactly once, before Run.
	Prepare(m *crash.Machine, em *crash.Emulator) error
	// Start returns the token a fresh (non-recovery) Run starts from.
	Start() int64
	// Run executes the computation from a resume token: Start() for a
	// fresh run, or the value returned by Recover after a crash.
	Run(from int64)
	// Recover inspects the post-crash persistent image (the machine
	// must have restarted, live = image) and returns the token to
	// resume Run from.
	Recover() (int64, error)
	// Verify checks the final result against the workload's native
	// reference, returning an error on corruption.
	Verify() error
	// Metrics reports workload-specific measurements of the last run
	// (residuals, per-iteration times, recovery statistics).
	Metrics() map[string]float64
}

// Boundary is implemented by workloads that let the campaign stop a
// recovery fork once it rejoins the recording run. At every firing of
// the main-loop trigger (the most frequent one) the campaign compares a
// fork against the uncrashed run at its boundaries: every region's live
// words, the LLC's resident lines in LRU order with their dirty bits and
// the prefetcher, the DRAM page tier, the CPU's fractional-nanosecond
// carry, the registered aux state, and the words Boundary appends. On a
// match the fork stops there and takes the rest of its result from the
// recording. NVM image words are left out: the rest of a run only writes
// them, through writebacks whose cost does not depend on them.
//
// Boundary appends to dst the workload's state at the boundary that lies
// outside the layers above — its loop position and loop-carried Go-side
// scalars. It must cover everything that Run after the boundary and
// Verify read outside the live heap words, the LLC, the page tier, the
// CPU remainder and the aux state: two workloads whose Boundary words
// and machine layers are equal must go on to identical costs and the
// same verdict. ok = false declares a boundary it cannot describe (a
// guard of unknown state, say); such a boundary never matches. A
// workload that does not implement Boundary never stops early.
type Boundary interface {
	Boundary(dst []uint64) (words []uint64, ok bool)
}

// GuardBoundary appends the Go-side state of a guard built by one of the
// built-in schemes for Boundary: nothing for the native and checkpoint
// guards (a checkpointer's state is aux state), the transaction pool's
// bookkeeping for a PMEM guard. A guard of any other type is reported
// with ok = false.
func GuardBoundary(g Guard, dst []uint64) ([]uint64, bool) {
	switch g := g.(type) {
	case nativeGuard, *checkpointGuard:
		return dst, true
	case *pmemGuard:
		return g.pool.Boundary(dst), true
	}
	return dst, false
}

// Family is one row of the workload table: everything a sweep needs to
// know about a workload without importing it. The campaign, the public
// registry, and the family experiments all read the same entries (the
// built-in five live in internal/families).
type Family struct {
	// Name identifies the workload in registries, specs, and reports.
	Name string
	// Schemes lists the schemes the workload is swept under, as written.
	// Nil means it has no scheme-selected variants: a seven-case sweep
	// covers it, and the campaign sweeps DefaultCampaignSchemes.
	Schemes []string
	// Shared, when non-nil, builds the pure inputs every instance at a
	// scale reads but never writes (a generated matrix, a verification
	// oracle). Sweeps call it once per scale and hand the result to New.
	Shared func(scale float64) any
	// New builds a fresh, unprepared instance for one run under sc.
	// shared is Shared(scale)'s result, nil when Shared is nil.
	New func(sc Scheme, scale float64, shared any) (Workload, error)
}

// SharedAt builds the family's shared inputs at scale.
func (f Family) SharedAt(scale float64) any {
	if f.Shared == nil {
		return nil
	}
	return f.Shared(scale)
}

// DefaultCampaignSchemes is the campaign grid of a family with nil
// Schemes: the five conventional mechanisms plus one algorithm-directed
// scheme. The campaign's System axis already covers both platforms, so
// listing algo-NVM/DRAM too would re-run an identical configuration
// under a different label.
var DefaultCampaignSchemes = []string{
	SchemeNative, SchemeCkptHDD, SchemeCkptNVM, SchemeCkptHetero,
	SchemePMEM, SchemeAlgoNVM,
}

// RegisterFamily adds a workload family; families enumerate in
// registration order. An empty name, a nil New, or a name already
// present returns an error.
func (r *Registry) RegisterFamily(f Family) error {
	if f.Name == "" || f.New == nil {
		return fmt.Errorf("incomplete workload (need Name and New)")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if slices.ContainsFunc(r.families, func(g Family) bool { return g.Name == f.Name }) {
		return fmt.Errorf("duplicate workload %q", f.Name)
	}
	r.families = append(r.families, f)
	return nil
}

// Family finds a workload family by name.
func (r *Registry) Family(name string) (Family, bool) {
	for _, f := range r.Families() {
		if f.Name == name {
			return f, true
		}
	}
	return Family{}, false
}

// Families returns every workload family in registration order.
func (r *Registry) Families() []Family {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return slices.Clone(r.families)
}
