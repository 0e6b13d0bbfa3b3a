package harness

import (
	"context"
	"fmt"
	"slices"

	"adcc/internal/bench"
	"adcc/internal/crash"
	"adcc/internal/engine"
	"adcc/internal/families"
	"adcc/internal/kvlog"
	"adcc/internal/stencil"
)

// familyLLCBytes is the LLC of the family experiments: 1 MB, the
// campaign size. At scale 1.0 the stencil's plane history straddles it
// (old planes evicted and persistent, recent planes resident and lost),
// while the KV store (index + log) stays cache-resident — the
// served-traffic regime where unflushed state is exactly what a crash
// loses.
const familyLLCBytes = 1 << 20

// familyExperiment is what runFamily needs to know about one extension
// family: the experiment-shape instances (larger than the campaign shape
// in internal/families) and what the family prints beyond the shared
// runtime columns. The scheme list is not here: it is the family's entry
// in the workload table.
type familyExperiment struct {
	name, title string
	shape       string // instance sizes, for the verbose log
	new         func(sc engine.Scheme) engine.Workload
	// headers and cols add per-case columns from Workload.Metrics.
	headers []string
	cols    func(metrics map[string]float64) []any
	// trigger and occurrence place the crash test at the end of the run.
	trigger    string
	occurrence int
	// recoveryNote words the crash test's outcome from the resume token,
	// the simulated recover and resume durations, and the metrics taken
	// right after the crash and after the verified completion.
	recoveryNote  func(from, recoverNS, resumeNS int64, crashed, done map[string]float64) string
	mechanismNote string
}

// RunStencil drives the Jacobi heat relaxation family.
func RunStencil(ctx context.Context, o Options) (*Table, error) {
	opts := stencil.Options{N: o.scaleInt(160, 48), MaxIter: 12, Seed: 21}
	return runFamily(ctx, o, familyExperiment{
		name:       stencil.WorkloadName,
		title:      "Jacobi heat stencil runtime under mechanisms (normalized to native)",
		shape:      fmt.Sprintf("n=%d", opts.N),
		new:        func(sc engine.Scheme) engine.Workload { return stencil.NewWorkload(opts, sc, nil) },
		trigger:    stencil.TriggerIterEnd,
		occurrence: opts.MaxIter,
		recoveryNote: func(from, recoverNS, resumeNS int64, crashed, done map[string]float64) string {
			// The resume token is the sweep after the newest verified
			// plane pair; the lost sweeps lie between it and the crash.
			lost, avg := int64(done["iterations_lost"]), int64(crashed["avg_iter_ns"])
			return fmt.Sprintf("crash at end of sweep %d: %d sweeps lost, detect %.3f iter, resume %.3f iter, result verified",
				from-1+lost, lost, normalize(recoverNS, avg), normalize(resumeNS, avg))
		},
		mechanismNote: "algo flushes 2 lines/sweep (index + residual); recovery re-relaxes from the last plane pair satisfying u(j)=Jacobi(u(j-1))",
	})
}

// RunKVLog drives the served-traffic family: a persistent KV store
// judged the way a serving system is — simulated throughput and request
// tail latency beside the runtime normalization the paper uses.
func RunKVLog(ctx context.Context, o Options) (*Table, error) {
	opts := kvlog.Options{Requests: o.scaleInt(2400, 240), KeySpace: 256, ScanLen: 8, CkptEvery: 16, Seed: 33}
	return runFamily(ctx, o, familyExperiment{
		name:    kvlog.WorkloadName,
		title:   "Persistent KV store under mechanisms (throughput and request tail latency)",
		shape:   fmt.Sprintf("requests=%d keyspace=%d", opts.Requests, opts.KeySpace),
		new:     func(sc engine.Scheme) engine.Workload { return kvlog.NewWorkload(opts, sc, nil) },
		headers: []string{"kOps/s", "p50(ns)", "p99(ns)"},
		cols: func(m map[string]float64) []any {
			return []any{fmt.Sprintf("%.1f", m["ops_per_sec"]/1e3), int64(m["p50_req_ns"]), int64(m["p99_req_ns"])}
		},
		trigger:    kvlog.TriggerReqEnd,
		occurrence: opts.Requests,
		recoveryNote: func(from, recoverNS, _ int64, _, done map[string]float64) string {
			return fmt.Sprintf("crash after request %d: %d log records replayed into a cleared index in %.3f ms, state verified",
				from-1, int64(done["replayed_records"]), float64(recoverNS)/1e6)
		},
		mechanismNote: "algo flushes only the appended log record + the high-water-mark line; the index is rebuilt by idempotent replay, never flushed",
	})
}

// familyRun is one crash-free run of a family instance.
type familyRun struct {
	ns      int64
	metrics map[string]float64
}

// runFamily drives one extension family through the engine.Workload
// lifecycle: the workload under every mechanism (runtime normalized to
// native on the same memory system, the Figure 4/8/13 presentation),
// plus one end-of-run crash test proving the algorithm-directed recovery
// completes to a verified result. The cases are the paper's seven plus
// whatever else the family's table entry lists. The statistical
// validation of the family — every crash point, every scheme, fault
// models — lives in the campaign experiment, whose grid includes the
// family's cells.
func runFamily(ctx context.Context, o Options, f familyExperiment) (*Table, error) {
	t := &Table{
		Name:    f.name,
		Title:   f.title,
		Headers: append([]string{"Case", "System", "Time(ms)", "Normalized"}, f.headers...),
	}
	o.logf("%s: %s", f.name, f.shape)
	reg := families.NewRegistry()
	run := func(sc engine.Scheme, kind crash.SystemKind) (familyRun, error) {
		m := newMachine(kind, familyLLCBytes, 16)
		w := f.new(sc)
		if err := w.Prepare(m, nil); err != nil {
			return familyRun{}, err
		}
		start := m.Clock.Now()
		w.Run(w.Start())
		return familyRun{ns: m.Clock.Since(start), metrics: w.Metrics()}, nil
	}

	// Native execution on both memory systems: the normalization
	// denominators.
	kinds := []crash.SystemKind{crash.NVMOnly, crash.Hetero}
	native := reg.MustLookup(caseNative)
	baseLabel := func(i int) string { return "native@" + kinds[i].String() }
	baseRuns, err := runCases(ctx, o, f.name+"/base", baseLabel, len(kinds), func(i int) (familyRun, error) {
		return run(native, kinds[i])
	})
	if err != nil {
		return nil, err
	}
	base := map[crash.SystemKind]familyRun{}
	for i, k := range kinds {
		base[k] = baseRuns[i]
	}

	cases := reg.SevenCases()
	fam, _ := reg.Family(f.name)
	for _, name := range fam.Schemes {
		if sc := reg.MustLookup(name); !slices.Contains(cases, sc) {
			cases = append(cases, sc)
		}
	}
	runs, err := runCases(ctx, o, f.name, schemeLabel(cases), len(cases), func(i int) (familyRun, error) {
		o.logf("%s: case %s", f.name, cases[i].Name())
		if cases[i] == native {
			return base[crash.NVMOnly], nil
		}
		return run(cases[i], cases[i].System())
	})
	if err != nil {
		return nil, err
	}
	for i, sc := range cases {
		ns, sys := runs[i].ns, sc.System()
		o.Collector.Record(bench.Result{Name: f.name + "/" + sc.Name(), SimNS: ns})
		row := []any{sc.Name(), sys.String(), fmt.Sprintf("%.2f", float64(ns)/1e6), normalize(ns, base[sys].ns)}
		if f.cols != nil {
			row = append(row, f.cols(runs[i].metrics)...)
		}
		t.AddRow(row...)
	}

	// Crash test: inject at the end of the last iteration and recover
	// under the full algorithm-directed protocol.
	m := newMachine(crash.NVMOnly, familyLLCBytes, 16)
	em := crash.NewEmulator(m)
	w := f.new(reg.MustLookup(caseAlgoNVM))
	if err := w.Prepare(m, em); err != nil {
		return nil, err
	}
	em.CrashAtTrigger(f.trigger, f.occurrence)
	if !em.Run(func() { w.Run(w.Start()) }) {
		return nil, fmt.Errorf("%s: crash test did not crash", f.name)
	}
	crashed := w.Metrics()
	recoverStart := m.Clock.Now()
	from, err := w.Recover()
	if err != nil {
		return nil, fmt.Errorf("%s: algorithm-directed recovery failed: %w", f.name, err)
	}
	recoverNS := m.Clock.Since(recoverStart)
	resumeStart := m.Clock.Now()
	w.Run(from)
	resumeNS := m.Clock.Since(resumeStart)
	if err := w.Verify(); err != nil {
		return nil, fmt.Errorf("%s: algorithm-directed recovery failed verification: %w", f.name, err)
	}
	o.Collector.Record(bench.Result{
		Name:       f.name + "/recovery",
		SimNS:      recoverNS + resumeNS,
		RecoveryNS: recoverNS,
	})
	t.AddNote("%s", f.recoveryNote(from, recoverNS, resumeNS, crashed, w.Metrics()))
	t.AddNote("%s", f.mechanismNote)
	return t, nil
}
