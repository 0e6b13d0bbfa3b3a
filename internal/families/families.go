// Package families is the workload table: the one place that says which
// workloads exist, which schemes each sweeps, how an instance is built at
// a scale, and which pure inputs are shared read-only. The campaign, the
// public pkg/adcc registry, and the harness family experiments read
// these five entries through engine.Registry; a sixth is one
// RegisterFamily (or adcc.Registry.RegisterWorkload) call away.
package families

import (
	"adcc/internal/core"
	"adcc/internal/dense"
	"adcc/internal/engine"
	"adcc/internal/kvlog"
	"adcc/internal/mc"
	"adcc/internal/sparse"
	"adcc/internal/stencil"
)

// scaleInt scales v with a floor, the sizing rule of every entry.
func scaleInt(v int, scale float64, floor int) int {
	return max(floor, int(float64(v)*scale))
}

// mmOpts is the MM configuration at a scale.
func mmOpts(scale float64) core.MMOptions {
	const k = 16
	return core.MMOptions{N: k * scaleInt(8, scale, 3), K: k, Seed: 12}
}

// heatOpts is the stencil configuration at a scale. At scale 1.0 the
// plane history (~1 MB) straddles the campaign LLC, so both
// evicted-and-persistent and cache-resident-and-lost planes appear in
// the sweep.
func heatOpts(scale float64) stencil.Options {
	return stencil.Options{N: scaleInt(96, scale, 32), MaxIter: 12, Seed: 21}
}

// kvlogOpts is the KV-store configuration at a scale. The store (index +
// log, ~25 KB at scale 1.0) stays LLC-resident, which is exactly the
// regime where the naive index-only design loses its unflushed log
// records.
func kvlogOpts(scale float64) kvlog.Options {
	return kvlog.Options{Requests: scaleInt(600, scale, 120), KeySpace: 128, ScanLen: 8, CkptEvery: 16, Seed: 33}
}

// withVariants is the scheme list of a family whose flush policy comes
// from the scheme: the default grid plus the named algorithm-directed
// variants.
func withVariants(algo ...string) []string {
	return append(append([]string(nil), engine.DefaultCampaignSchemes...), algo...)
}

// builtin is the table. Sizes scale with the sweep's scale and seeds are
// fixed, so the only varying coordinate of a campaign injection is its
// crash point. Algorithm-directed schemes run the extended
// implementations, conventional schemes the baselines driven through the
// scheme's Guard.
var builtin = []engine.Family{
	{
		// CG and MM have a single algorithm-directed design (no
		// flush-policy variants): nil Schemes.
		Name:   "cg",
		Shared: func(scale float64) any { return sparse.GenSPD(scaleInt(1200, scale, 300), 9, 11) },
		New: func(sc engine.Scheme, _ float64, shared any) (engine.Workload, error) {
			return core.NewCGWorkload(shared.(*sparse.CSR), core.CGOptions{MaxIter: 15, Seed: 11}, sc), nil
		},
	},
	{
		Name:   "mm",
		Shared: func(scale float64) any { return core.MMWant(mmOpts(scale)) },
		New: func(sc engine.Scheme, scale float64, shared any) (engine.Workload, error) {
			return core.NewMMWorkload(mmOpts(scale), sc, shared.(*dense.Matrix)), nil
		},
	},
	{
		// MC selects its mechanism entirely through the scheme, so it
		// sweeps every algorithm-directed variant, both platform labels
		// included.
		Name:    "mc",
		Schemes: withVariants(engine.SchemeAlgoHetero, engine.SchemeAlgoNaive, engine.SchemeAlgoEvery),
		New: func(sc engine.Scheme, scale float64, _ any) (engine.Workload, error) {
			return &core.MCWorkload{
				Cfg: mc.Config{
					Nuclides:         16,
					PointsPerNuclide: 128,
					Lookups:          scaleInt(20_000, scale, 2500),
					Seed:             42,
				},
				Scheme: sc,
			}, nil
		},
	},
	{
		// The stencil and the KV store sweep the rejected index-only and
		// every-iteration designs too, minus the algo-NVM/DRAM label,
		// which on the campaign's System axis repeats algo-NVM-only.
		Name:    stencil.WorkloadName,
		Schemes: withVariants(engine.SchemeAlgoNaive, engine.SchemeAlgoEvery),
		Shared:  func(scale float64) any { return stencil.Want(heatOpts(scale)) },
		New: func(sc engine.Scheme, scale float64, shared any) (engine.Workload, error) {
			return stencil.NewWorkload(heatOpts(scale), sc, shared.([]float64)), nil
		},
	},
	{
		Name:    kvlog.WorkloadName,
		Schemes: withVariants(engine.SchemeAlgoNaive, engine.SchemeAlgoEvery),
		Shared:  func(scale float64) any { return kvlog.Oracle(kvlogOpts(scale)) },
		New: func(sc engine.Scheme, scale float64, shared any) (engine.Workload, error) {
			return kvlog.NewWorkload(kvlogOpts(scale), sc, shared.(map[int64]int64)), nil
		},
	},
}

// NewRegistry returns a registry seeded with the nine built-in schemes
// and the five built-in workload families, in sweep order.
func NewRegistry() *engine.Registry {
	r := engine.NewBuiltinRegistry()
	for _, f := range builtin {
		if err := r.RegisterFamily(f); err != nil {
			panic("families: " + err.Error())
		}
	}
	return r
}
