// Command crashsim is the standalone crash emulator of paper §III-A: it
// runs one of the study workloads (cg, mm, mc, or the stencil and kvlog
// extension families) on the simulated NVM platform,
// injects a crash at a chosen execution point (a named program point
// occurrence or an absolute memory-operation count), and reports the
// consistency state of every memory region at the crash — which lines
// were still dirty in the volatile cache (lost) and what recovery
// concludes from the persistent image. It is built entirely on the
// public pkg/adcc API.
//
// Usage:
//
//	crashsim -workload cg -n 6000 -occurrence 15
//	crashsim -workload mm -n 400 -loop 2 -occurrence 4
//	crashsim -workload mc -lookups 50000 -crash-op 2000000
//	crashsim -workload stencil -n 160 -occurrence 10
//	crashsim -workload kvlog -occurrence 400
//
// With -campaign, crashsim instead sweeps the selected workload through
// the statistical fault-injection campaign across every supported
// scheme and both platforms, printing the per-scheme survival table
// (and the full enveloped JSON report with -json):
//
//	crashsim -workload mc -campaign -campaign-scale 0.1 -parallel 4
//	crashsim -workload mc -campaign -store out.adccs   # raw rows, query with adccquery
//
// The -fault flag selects crash-time fault/persistency models beyond
// clean fail-stop (torn line writebacks, eADR cache drain, reordered
// writebacks, silent bit flips): one model for a single-point run, a
// comma-separated sweep list with -campaign:
//
//	crashsim -workload cg -occurrence 15 -fault torn
//	crashsim -workload mc -campaign -fault failstop,torn,eadr,reorder,bitflip
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
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
		n          = fs.Int("n", 6000, "problem size (CG order / MM dimension / stencil grid, default 160 for stencil)")
		k          = fs.Int("k", 0, "MM rank (default n/10)")
		loop       = fs.Int("loop", 1, "MM loop to crash in (1 or 2)")
		lookups    = fs.Int("lookups", 50_000, "MC lookup count")
		occurrence = fs.Int("occurrence", 15, "crash at this occurrence of the workload's iteration-end point")
		crashOp    = fs.Int64("crash-op", 0, "crash after this many memory operations (overrides -occurrence)")
		faultFlag  = fs.String("fault", "", "crash-time fault models (failstop, torn, eadr, reorder, bitflip): one model in single-point mode, a comma-separated sweep list with -campaign")
		llcKB      = fs.Int("llc", 2048, "LLC size in KB")
		hetero     = fs.Bool("hetero", false, "use the heterogeneous NVM/DRAM system")

		campaignMode  = fs.Bool("campaign", false, "sweep the workload through the fault-injection campaign instead of one crash point")
		campaignScale = fs.Float64("campaign-scale", 0.1, "with -campaign: problem-size and sweep-density scale")
		parallel      = fs.Int("parallel", 1, "with -campaign: max concurrent cells (report identical at any setting)")
		jsonPath      = fs.String("json", "", "with -campaign: write the machine-readable campaign report to this file")
		storePath     = fs.String("store", "", "with -campaign: write every injection's raw outcome row to a columnar result store at this path (query with adccquery)")
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

	if *campaignMode {
		// The campaign builds its own machines and sweeps its own crash
		// points; single-point flags would be silently ignored, so
		// reject them instead.
		for _, name := range []string{"n", "k", "loop", "lookups", "occurrence", "crash-op", "llc", "hetero"} {
			if set[name] {
				fmt.Fprintf(stderr, "crashsim: -%s applies to single-point mode and is ignored by -campaign (the campaign sweeps both platforms with its own sizes); drop it\n", name)
				return 2
			}
		}
		return runCampaign(stdout, stderr, *workload, *campaignScale, *parallel, *jsonPath, *storePath, faultNames(*faultFlag))
	}

	switch {
	case *occurrence < 1:
		return usage("-occurrence must be at least 1 (occurrences are 1-based), got %d", *occurrence)
	case *crashOp < 0:
		return usage("-crash-op must not be negative, got %d", *crashOp)
	case *loop != 1 && *loop != 2:
		return usage("-loop must be 1 or 2, got %d", *loop)
	case *n < 1:
		return usage("-n must be positive, got %d", *n)
	case *k < 0:
		return usage("-k must not be negative, got %d", *k)
	case *k > *n:
		return usage("-k must not exceed -n (%d), got %d", *n, *k)
	case *lookups < 1:
		return usage("-lookups must be positive, got %d", *lookups)
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

	kind := adcc.NVMOnly
	if *hetero {
		kind = adcc.Hetero
	}
	reg := adcc.NewRegistry()
	m := adcc.NewMachine(adcc.MachineConfig{
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
	})
	em := adcc.NewEmulator(m)
	if err := em.SetFault(fault); err != nil {
		fmt.Fprintf(stderr, "crashsim: %v\n", err)
		return 2
	}
	em.OnCrash = func(m *adcc.Machine) {
		fmt.Fprintf(stdout, "--- crash fired (op %d, trigger %q) ---\n", em.OpCount(), em.CrashTrigger())
		reportCacheState(stdout, m)
	}

	var work func()
	var recover func()
	switch *workload {
	case "cg":
		a := adcc.GenSPD(*n, 9, 1)
		cg := adcc.NewCG(m, em, a, adcc.CGOptions{MaxIter: *occurrence})
		em.CrashAtTrigger(adcc.TriggerCGIterEnd, *occurrence)
		work = func() { cg.Run(1) }
		recover = func() {
			rec := cg.Recover()
			fmt.Fprintf(stdout, "recovery: crash iter %d, restart iter %d, iterations lost %d (checked %d candidates)\n",
				rec.CrashIter, rec.RestartIter, rec.IterationsLost, rec.Checked)
		}
	case "mm":
		kk := *k
		if kk == 0 {
			kk = max(*n/10, 1)
		}
		mm := adcc.NewMM(m, em, adcc.MMOptions{N: (*n / kk) * kk, K: kk, Seed: 1})
		trig := adcc.TriggerMMLoop1IterEnd
		if *loop == 2 {
			trig = adcc.TriggerMMLoop2IterEnd
		}
		em.CrashAtTrigger(trig, *occurrence)
		work = mm.Run
		recover = func() {
			rec := mm.RecoverLoop1()
			fmt.Fprintf(stdout, "recovery (loop 1 temporal matrices):\n")
			for s, st := range rec.Status {
				fmt.Fprintf(stdout, "  Ctemp[%d]: %s\n", s, st)
			}
			if *loop == 2 {
				rec2 := mm.RecoverLoop2()
				fmt.Fprintf(stdout, "recovery (loop 2 row blocks):\n")
				for b, st := range rec2.Status {
					fmt.Fprintf(stdout, "  block[%d]: %s\n", b, st)
				}
			}
		}
	case "mc":
		s := adcc.NewMCSim(m, adcc.MCConfig{
			Nuclides: 34, PointsPerNuclide: 500, Lookups: *lookups, Seed: 42,
		})
		r := adcc.NewMCRunner(m, em, s, reg.MustScheme(adcc.SchemeAlgoNVM))
		em.CrashAtTrigger(adcc.TriggerMCLookup, *occurrence)
		work = func() { r.Run(0) }
		recover = func() {
			fmt.Fprintf(stdout, "recovery: restart at lookup %d; persistent counters %v\n",
				r.RestartIter(), s.CountsImage())
		}
	case "stencil":
		// The grid history is quadratic in n; the CG-sized default would
		// allocate hundreds of megabytes, so stencil gets its own.
		dim := 160
		if set["n"] {
			dim = *n
		}
		h := adcc.NewHeat(m, em, adcc.HeatOptions{N: dim, MaxIter: *occurrence + 2, Seed: 21})
		em.CrashAtTrigger(adcc.TriggerStencilIterEnd, *occurrence)
		work = func() { h.Run(1) }
		recover = func() {
			rec := h.Recover()
			fmt.Fprintf(stdout, "recovery: crash sweep %d, restart sweep %d, sweeps lost %d (checked %d plane pairs)\n",
				rec.CrashIter, rec.RestartIter, rec.IterationsLost, rec.Checked)
		}
	case "kvlog":
		// -occurrence counts served requests; size the stream past it.
		s := adcc.NewKVLogStore(m, em, adcc.KVLogOptions{
			Requests: *occurrence + 100, KeySpace: 256, Seed: 33,
		})
		em.CrashAtTrigger(adcc.TriggerKVLogReqEnd, *occurrence)
		work = func() { s.Run(1) }
		recover = func() {
			rec, from, err := s.Recover()
			if err != nil {
				fmt.Fprintf(stdout, "recovery: detected corruption: %v\n", err)
				return
			}
			fmt.Fprintf(stdout, "recovery: high-water mark %d log words, %d records replayed into a cleared index, resume at request %d\n",
				rec.LogWords, rec.Replayed, from)
		}
	default:
		fmt.Fprintf(stderr, "crashsim: unknown workload %q\n", *workload)
		return 2
	}

	if *crashOp > 0 {
		em.CrashAtTrigger("", 0) // disarm trigger
		em.CrashAtOp(*crashOp)
	}
	if !em.Run(work) {
		fmt.Fprintln(stdout, "workload completed without reaching the crash point")
		return 0
	}
	if err := em.FaultErr(); err != nil {
		fmt.Fprintf(stdout, "fault model fell back to fail-stop: %v\n", err)
	}
	fmt.Fprintf(stdout, "--- post-crash (restarted from NVM image) ---\n")
	recover()
	fmt.Fprintf(stdout, "simulated time at exit: %.3f ms\n", float64(m.Clock.Now())/1e6)
	return 0
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
