package harness

import (
	"context"
	"fmt"
	"slices"

	"adcc/internal/bench"
	"adcc/internal/crash"
	"adcc/internal/engine"
)

// The paper's evaluation has two recurring experiment shapes, and each
// has one driver here, both over engine.Workload: the runtime table
// (Figures 4, 8, 13 and the extension families) and the crash test
// (Figures 3, 10, 12, the cache and flush-period ablations, the families'
// recovery check). Figure 7 and the rank ablation stay bespoke: they
// drive MM's RecoverLoop1/2 with a partial repair plan and RunLoop1
// alone, which engine.Workload deliberately hides.

// timedRun prepares w on m and returns the simulated duration of one
// crash-free run.
func timedRun(m *crash.Machine, w engine.Workload) (int64, error) {
	if err := w.Prepare(m, nil); err != nil {
		return 0, err
	}
	start := m.Clock.Now()
	w.Run(w.Start())
	return m.Clock.Since(start), nil
}

// runtimeTable describes one experiment of the runtime shape: a workload
// under every case, normalized to native execution on the same memory
// system.
type runtimeTable struct {
	name, title string
	shape       string // instance sizes, for the verbose log
	machine     func(kind crash.SystemKind) *crash.Machine
	// cases are the schemes compared, in row order; native is one of them.
	cases []engine.Scheme
	// variants are the instances the cases are run on: Figure 8's three
	// ranks; every other experiment has one.
	variants []runtimeVariant
	// leadHeaders name the variants' lead cells; tailHeaders name what
	// tail appends to a row. tail sees the workload after its run, so a
	// column read off Workload.Metrics costs that call only where it is
	// printed. notes go under the table.
	leadHeaders, tailHeaders []string
	tail                     func(sc engine.Scheme, w engine.Workload) []any
	notes                    []string
}

// runtimeVariant is one instance of a runtime experiment. label prefixes
// the variant's event labels and collector names and lead its rows; both
// are empty when the experiment has a single variant.
type runtimeVariant struct {
	label string
	lead  []any
	new   func(sc engine.Scheme) engine.Workload
}

// runtimeRow is one case of a runtime experiment: its scheme, the index
// of its variant, its simulated time, the native time on the same memory
// system that it normalizes to, and its tail cells.
type runtimeRow struct {
	scheme     engine.Scheme
	variant    int
	ns, baseNS int64
	tail       []any
}

// normalized is the row's time as a multiple of native.
func (r runtimeRow) normalized() float64 { return normalize(r.ns, r.baseNS) }

// runRuntimeTable measures native execution of every variant on both
// memory systems (the normalization denominators), then every case of
// every variant, recording one bench.Result per case, and returns the
// rows beside the table rendered from them,
// [lead…] Case System Time(ms) Normalized [tail…]. The native row is
// answered from the NVM-only base run rather than re-run.
func runRuntimeTable(ctx context.Context, o Options, d runtimeTable) (*Table, []runtimeRow, error) {
	t := &Table{
		Name:    d.name,
		Title:   d.title,
		Headers: slices.Concat(d.leadHeaders, []string{"Case", "System", "Time(ms)", "Normalized"}, d.tailHeaders),
		Notes:   d.notes,
	}
	o.logf("%s: %s", d.name, d.shape)
	run := func(v runtimeVariant, sc engine.Scheme, kind crash.SystemKind) (runtimeRow, error) {
		w := v.new(sc)
		ns, err := timedRun(d.machine(kind), w)
		if err != nil || d.tail == nil {
			return runtimeRow{ns: ns}, err
		}
		return runtimeRow{ns: ns, tail: d.tail(sc, w)}, nil
	}
	// slash joins the non-empty parts of a label.
	slash := func(a, b string) string {
		if a == "" || b == "" {
			return a + b
		}
		return a + "/" + b
	}

	kinds := []crash.SystemKind{crash.NVMOnly, crash.Hetero}
	native := d.cases[slices.IndexFunc(d.cases, func(sc engine.Scheme) bool { return sc.Name() == caseNative })]
	baseLabel := func(i int) string {
		return slash(caseNative, d.variants[i/len(kinds)].label) + "@" + kinds[i%len(kinds)].String()
	}
	base, err := runCases(ctx, o, d.name+"/base", baseLabel, len(d.variants)*len(kinds), func(i int) (runtimeRow, error) {
		return run(d.variants[i/len(kinds)], native, kinds[i%len(kinds)])
	})
	if err != nil {
		return nil, nil, err
	}
	baseOf := func(vi int, kind crash.SystemKind) runtimeRow {
		return base[vi*len(kinds)+slices.Index(kinds, kind)]
	}

	caseLabel := func(i int) string {
		return slash(d.variants[i/len(d.cases)].label, d.cases[i%len(d.cases)].Name())
	}
	rows, err := runCases(ctx, o, d.name, caseLabel, len(d.variants)*len(d.cases), func(i int) (runtimeRow, error) {
		vi, sc := i/len(d.cases), d.cases[i%len(d.cases)]
		o.logf("%s: case %s", d.name, caseLabel(i))
		if sc == native {
			return baseOf(vi, crash.NVMOnly), nil
		}
		return run(d.variants[vi], sc, sc.System())
	})
	if err != nil {
		return nil, nil, err
	}
	for i := range rows {
		r := &rows[i]
		r.variant, r.scheme = i/len(d.cases), d.cases[i%len(d.cases)]
		r.baseNS = baseOf(r.variant, r.scheme.System()).ns
		o.Collector.Record(bench.Result{Name: d.name + "/" + caseLabel(i), SimNS: r.ns})
		t.AddRow(slices.Concat(d.variants[r.variant].lead, []any{
			r.scheme.Name(), r.scheme.System().String(), fmt.Sprintf("%.2f", float64(r.ns)/1e6), r.normalized(),
		}, r.tail)...)
	}
	return t, rows, nil
}

// crashTest is what one trigger-crash experiment measures.
type crashTest struct {
	// from is the resume token Recover returned.
	from int64
	// recoverNS and resumeNS are the simulated durations of Recover and
	// of the resumed run to completion.
	recoverNS, resumeNS int64
	// crashed and done are the workload's metrics right after the crash
	// and after the resumed run.
	crashed, done map[string]float64
}

// runCrashTest prepares w on m, crashes its run at the occurrence-th
// firing of trigger, and times recovery and the resumed run. A run that
// ends without crashing is an error, and so is a failed Recover; Verify
// is left to the caller.
func runCrashTest(m *crash.Machine, w engine.Workload, trigger string, occurrence int) (crashTest, error) {
	em := crash.NewEmulator(m)
	if err := w.Prepare(m, em); err != nil {
		return crashTest{}, err
	}
	em.CrashAtTrigger(trigger, occurrence)
	if !em.Run(func() { w.Run(w.Start()) }) {
		return crashTest{}, fmt.Errorf("%s: run did not crash at occurrence %d of %s", w.Name(), occurrence, trigger)
	}
	ct := crashTest{crashed: w.Metrics()}
	start := m.Clock.Now()
	from, err := w.Recover()
	if err != nil {
		return crashTest{}, fmt.Errorf("%s: recovery failed: %w", w.Name(), err)
	}
	ct.from, ct.recoverNS = from, m.Clock.Since(start)
	start = m.Clock.Now()
	w.Run(from)
	ct.resumeNS = m.Clock.Since(start)
	ct.done = w.Metrics()
	return ct, nil
}
