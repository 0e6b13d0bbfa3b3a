// Command crashsim is the standalone crash emulator of paper §III-A. It
// builds any workload of the table (cg, mm, mc, stencil, kvlog) under
// algo-NVM-only on the simulated NVM platform, crashes it once — at the
// middle firing of its most frequent trigger unless -occurrence or
// -crash-op says otherwise — and prints which lines of every region were
// still dirty in the volatile cache (lost). It then recovers from the
// persistent image, resumes, prints the workload's metrics, and
// verifies. A panic in recovery or resumption prints "unrecoverable: …";
// the exit code is 1 only when the run fails under clean fail-stop.
//
//	crashsim -workload cg
//	crashsim -workload mm -scale 1 -occurrence 4
//	crashsim -workload mc -crash-op 20000 -fault torn
//
// With -campaign it instead sweeps the workload through the statistical
// fault-injection campaign across every supported scheme and both
// platforms, printing the survival table (-json and -store write the
// report and the raw rows). -scale sizes both modes; -fault takes one
// model in single-point mode and a comma-separated list with -campaign:
//
//	crashsim -workload mc -campaign -scale 0.1 -parallel 4 -store out.adccs
//	crashsim -workload mc -campaign -fault failstop,torn,eadr,reorder,bitflip
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"slices"
	"strings"

	"adcc/pkg/adcc"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command over explicit arguments and streams, so the
// tests drive the exit codes directly; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("crashsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload   = fs.String("workload", "cg", "workload: cg, mm, mc, stencil, or kvlog")
		scale      = fs.Float64("scale", 0.1, "problem-size scale (1.0 = paper shape); with -campaign also the sweep density")
		occurrence = fs.Int("occurrence", 0, "crash at this firing of the workload's most frequent trigger (default: the middle firing)")
		crashOp    = fs.Int64("crash-op", 0, "crash after this many memory operations (overrides -occurrence)")
		faultFlag  = fs.String("fault", "", "crash-time fault models (failstop, torn, eadr, reorder, bitflip): one model in single-point mode, a comma-separated sweep list with -campaign")
		llcKB      = fs.Int("llc", 2048, "LLC size in KB")
		hetero     = fs.Bool("hetero", false, "use the heterogeneous NVM/DRAM system")

		campaignMode = fs.Bool("campaign", false, "sweep the workload through the fault-injection campaign instead of one crash point")
		parallel     = fs.Int("parallel", 1, "with -campaign: max concurrent cells (report identical at any setting)")
		jsonPath     = fs.String("json", "", "with -campaign: write the machine-readable campaign report to this file")
		storePath    = fs.String("store", "", "with -campaign: write every injection's raw outcome row to a columnar result store at this path (query with adccquery)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "crashsim: "+format+"\n", a...)
		fs.Usage()
		return 2
	}
	if !(*scale > 0) || math.IsInf(*scale, 1) {
		return usage("-scale must be positive and finite, got %g", *scale)
	}

	if *campaignMode {
		// The campaign builds its own machines and sweeps its own crash
		// points; single-point flags would be silently ignored, so
		// reject them instead.
		for _, name := range []string{"occurrence", "crash-op", "llc", "hetero"} {
			if set[name] {
				fmt.Fprintf(stderr, "crashsim: -%s applies to single-point mode and is ignored by -campaign (the campaign sweeps both platforms with its own cache and crash points); drop it\n", name)
				return 2
			}
		}
		return runCampaign(stdout, stderr, *workload, *scale, *parallel, *jsonPath, *storePath, faultNames(*faultFlag))
	}

	switch {
	case *crashOp < 0:
		return usage("-crash-op must not be negative, got %d", *crashOp)
	case *llcKB < 1:
		return usage("-llc must be positive, got %d", *llcKB)
	}

	// Single-point mode crashes exactly once, so it takes one fault
	// model, not a sweep list.
	var fault adcc.FaultModel
	if names := faultNames(*faultFlag); len(names) > 1 {
		fmt.Fprintf(stderr, "crashsim: -fault takes one model in single-point mode (a comma-separated list needs -campaign)\n")
		return 2
	} else if len(names) == 1 {
		var err error
		if fault, err = adcc.ParseFaultModel(names[0]); err != nil {
			fmt.Fprintf(stderr, "crashsim: %v\n", err)
			return 2
		}
	}

	reg := adcc.NewRegistry()
	spec, ok := reg.Workload(*workload)
	if !ok {
		fmt.Fprintf(stderr, "crashsim: unknown workload %q (have %s)\n", *workload, strings.Join(reg.WorkloadNames(), ", "))
		return 2
	}
	sc := reg.MustScheme(adcc.SchemeAlgoNVM)
	kind := adcc.NVMOnly
	if *hetero {
		kind = adcc.Hetero
	}
	// newEmulator builds a fresh machine and a crash emulator on it.
	newEmulator := func() *adcc.Emulator {
		return adcc.NewEmulator(adcc.NewMachine(adcc.MachineConfig{
			System: kind,
			Cache: adcc.CacheConfig{
				SizeBytes:         *llcKB << 10,
				LineBytes:         64,
				Assoc:             16,
				HitNS:             4,
				FlushChargesClean: true,
				PrefetchStreams:   16,
				// eADR keeps the LLC in the persistence domain, so flushes
				// cost a hit and the crash drains dirty lines.
				FlushFree: fault.Kind == adcc.EADR,
			},
		}))
	}
	// prepared builds a fresh instance of the workload bound to em.
	prepared := func(em *adcc.Emulator) (adcc.Workload, error) {
		w, err := spec.New(sc, *scale)
		if err == nil {
			err = w.Prepare(em.M, em)
		}
		return w, err
	}

	// One instance profiles an uncrashed run to learn the crash-point
	// space; a second, on its own machine, is crashed.
	pem, em := newEmulator(), newEmulator()
	var pw, w adcc.Workload
	err := em.SetFault(fault)
	if err == nil {
		pw, err = prepared(pem)
	}
	if err == nil {
		w, err = prepared(em)
	}
	if err != nil {
		fmt.Fprintf(stderr, "crashsim: %s: %v\n", *workload, err)
		return 1
	}
	prof := pem.Profile(func() { pw.Run(pw.Start()) })
	trig := prof.MainTrigger()
	pt := adcc.CrashPoint{Trigger: trig.Name, Occurrence: (trig.Count + 1) / 2}
	if set["occurrence"] {
		pt.Occurrence = *occurrence
	}
	switch {
	case *crashOp > prof.Ops:
		return usage("-crash-op must not exceed the run's %d memory operations, got %d", prof.Ops, *crashOp)
	case (set["occurrence"] || *crashOp == 0) && (pt.Occurrence < 1 || pt.Occurrence > trig.Count):
		return usage("-occurrence must be in [1, %d] (the firings of %q), got %d", trig.Count, trig.Name, pt.Occurrence)
	}
	if *crashOp > 0 {
		pt = adcc.CrashPoint{Op: *crashOp}
	}
	fmt.Fprintf(stdout, "%s under %s at scale %g: %d ops, %d firings of %q; crashing at %s\n",
		*workload, sc.Name(), *scale, prof.Ops, trig.Count, trig.Name, pt)

	em.OnCrash = func(m *adcc.Machine) {
		fmt.Fprintf(stdout, "--- crash fired (op %d, trigger %q) ---\n", em.OpCount(), em.CrashTrigger())
		reportCacheState(stdout, m)
	}
	em.Arm(pt)
	if !em.Run(func() { w.Run(w.Start()) }) {
		fmt.Fprintln(stdout, "workload completed without reaching the crash point")
		return 0
	}
	if err := em.FaultErr(); err != nil {
		fmt.Fprintf(stdout, "fault model fell back to fail-stop: %v\n", err)
	}
	fmt.Fprintf(stdout, "--- post-crash (restarted from NVM image) ---\n")
	em.Disarm()
	verified := recoverAndResume(stdout, w)
	fmt.Fprintf(stdout, "simulated time at exit: %.3f ms\n", float64(em.M.Clock.Now())/1e6)
	if !verified && fault.Kind == adcc.FailStop {
		fmt.Fprintf(stderr, "crashsim: %s failed to recover under fail-stop\n", *workload)
		return 1
	}
	return 0
}

// recoverAndResume takes a crashed workload through recovery, the
// resumed run, and verification, printing each step, and reports whether
// the result verified. A recovery error or a panic in recovery or
// resumption prints as unrecoverable, a panic in Verify as corrupt — the
// campaign's classification — never as a goroutine dump.
func recoverAndResume(out io.Writer, w adcc.Workload) bool {
	var from int64
	err := contained(func() (err error) {
		from, err = w.Recover()
		return err
	})
	if err == nil {
		fmt.Fprintf(out, "recovery: resume from %d\n", from)
		err = contained(func() error { w.Run(from); return nil })
	}
	if err != nil {
		fmt.Fprintf(out, "unrecoverable: %v\n", err)
		return false
	}
	metrics := w.Metrics()
	for _, k := range slices.Sorted(maps.Keys(metrics)) {
		fmt.Fprintf(out, "metric %s = %g\n", k, metrics[k])
	}
	if err := contained(w.Verify); err != nil {
		fmt.Fprintf(out, "result: corrupt: %v\n", err)
		return false
	}
	fmt.Fprintln(out, "result: verified")
	return true
}

// contained calls f, converting a panic into an error.
func contained(f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return f()
}

// faultNames splits a -fault flag value into model names.
func faultNames(flagValue string) []string {
	if flagValue == "" {
		return nil
	}
	var out []string
	for _, n := range strings.Split(flagValue, ",") {
		if n = strings.TrimSpace(n); n != "" {
			out = append(out, n)
		}
	}
	return out
}

// runCampaign sweeps one workload through the injection campaign and
// prints its survival table, reusing the shared renderer so crashsim
// and adccbench present identical tables. Returns the process exit
// code; any silent corruption or unrecoverable injection under the
// paper's selective-flush algorithm-directed schemes is a failure —
// under clean fail-stop only, because the richer fault models (torn
// writebacks, reordering, bit flips) exist precisely to push schemes
// past their guarantees.
func runCampaign(stdout, stderr io.Writer, workload string, scale float64, parallel int, jsonPath, storePath string, faults []string) int {
	opts := []adcc.Option{
		adcc.WithScale(scale),
		adcc.WithParallelism(parallel),
		adcc.WithWorkloads(workload),
		adcc.WithVerbose(stderr),
	}
	if len(faults) > 0 {
		opts = append(opts, adcc.WithFaultModels(faults...))
	}
	if jsonPath != "" {
		opts = append(opts, adcc.WithCampaignJSON(jsonPath))
	}
	if storePath != "" {
		opts = append(opts, adcc.WithCampaignStore(storePath))
	}
	runner := adcc.New(nil, opts...)
	rep, err := runner.RunCampaign(context.Background())
	if err != nil {
		fmt.Fprintf(stderr, "crashsim: %v\n", err)
		return 1
	}
	adcc.CampaignTable(rep).Fprint(stdout)
	for _, c := range rep.Cells {
		if c.FaultModel == "" && c.Failures() > 0 &&
			(c.Scheme == adcc.SchemeAlgoNVM || c.Scheme == adcc.SchemeAlgoHetero) {
			fmt.Fprintf(stderr, "crashsim: %s/%s@%s: %d of %d injections failed\n",
				c.Workload, c.Scheme, c.System, c.Failures(), c.Injections)
			return 1
		}
	}
	return 0
}

// reportCacheState prints, per region, how many of its lines are
// resident and dirty at the crash instant — the data that is about to be
// lost (the paper tool's "values of data in caches and main memory").
func reportCacheState(w io.Writer, m *adcc.Machine) {
	fmt.Fprintf(w, "%-24s %12s %10s %10s %10s\n", "region", "bytes", "lines", "resident", "dirty")
	for _, r := range m.Heap.Regions() {
		lines := (r.Bytes() + adcc.LineBytes - 1) / adcc.LineBytes
		resident, dirty := 0, 0
		for l := 0; l < lines; l++ {
			res, d := m.LLC.Contains(r.Base() + adcc.Addr(l*adcc.LineBytes))
			if res {
				resident++
			}
			if d {
				dirty++
			}
		}
		if resident == 0 && dirty == 0 && lines > 64 {
			continue // keep the report focused on interesting regions
		}
		fmt.Fprintf(w, "%-24s %12d %10d %10d %10d\n", r.Name(), r.Bytes(), lines, resident, dirty)
	}
}
