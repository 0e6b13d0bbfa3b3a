// Command adccbench regenerates the tables and figures of the paper's
// evaluation (Yang et al., "Algorithm-Directed Crash Consistence in
// Non-Volatile Memory for HPC", CLUSTER 2017) on the simulated NVM
// platform, plus ablation studies and the statistical crash-injection
// campaign (run -list for the full set). It is built entirely on the
// public pkg/adcc API — everything it does is available to embedders.
//
// Usage:
//
//	adccbench -experiment all              # every experiment, paper-shape sizes
//	adccbench -experiment fig3,fig4        # specific experiments
//	adccbench -experiment fig8 -scale 0.2  # scaled-down quick run
//	adccbench -experiment all -parallel 4  # fan independent cases out over 4 workers
//	adccbench -experiment fig4 -events     # stream per-case progress events
//	adccbench -list                        # list experiments
//	adccbench -bench -json out.json        # machine-readable benchmark suite
//
//	# statistical crash-injection campaign; -json adds the full report,
//	# -fault sweeps richer crash-time fault/persistency models:
//	adccbench -experiment campaign -scale 0.1 -parallel 4 -json campaign.json
//	adccbench -experiment campaign -scale 0.1 -fault failstop,torn,eadr,reorder,bitflip
//
// The -bench mode runs the kernel probes, the timed harness experiments,
// and a fixed fault sub-grid (a reduced campaign swept under the
// torn/eadr/reorder/bitflip crash models), and emits the JSON suite —
// deterministic simulated metrics only — wrapped in the adcc-report/v1
// envelope for cmd/benchdiff.
// Unless -scale is given explicitly, -bench runs the experiments at the
// default bench scale (0.05), matching the root bench_test defaults.
//
// Every experiment case is seeded and runs on its own simulated machine,
// and the harness collects results in case order, so -parallel N output
// (tables, reports, and the -events stream) is byte-identical to a
// serial run.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"adcc/pkg/adcc"
)

// defaultBenchScale is the harness scale -bench uses when -scale is not
// given explicitly: the same reduced scale as the root bench_test
// defaults, so CI-sized runs and local runs agree.
const defaultBenchScale = 0.05

// benchExperiments are the timed harness experiments whose per-case
// simulated timings feed the bench suite. The campaign contributes one
// result per injection cell, so benchdiff gates recovery-rate
// regressions alongside the timing metrics; the stencil experiment
// contributes the extension family's per-scheme runtimes and recovery
// cost.
var benchExperiments = []string{"fig3", "fig4", "fig8", "fig13", "stencil", "kvlog", "campaign"}

func main() {
	var (
		expFlag   = flag.String("experiment", "all", "comma-separated experiment names, or 'all'")
		scale     = flag.Float64("scale", 1.0, "problem-size scale factor (1.0 = paper-shape defaults)")
		parallel  = flag.Int("parallel", 1, "max concurrent cases per experiment (<=1 = serial; output is identical at any setting)")
		verbose   = flag.Bool("v", false, "print progress while running")
		events    = flag.Bool("events", false, "stream per-case progress events to stderr (deterministic order)")
		listOnly  = flag.Bool("list", false, "list available experiments and exit")
		asCSV     = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		benchMode = flag.Bool("bench", false, "run the benchmark suite (kernels + timed experiments) and emit machine-readable results")
		faultFlag = flag.String("fault", "", "comma-separated crash-time fault models the campaign experiment sweeps (failstop, torn, eadr, reorder, bitflip); empty = fail-stop only")
		jsonPath  = flag.String("json", "", "with -bench: write the enveloped JSON suite to this file instead of stdout; with -experiment campaign: write the enveloped campaign report here")
		storePath = flag.String("store", "", "write the campaign experiment's raw per-injection rows to a columnar result store at this path (query with adccquery)")
	)
	flag.Parse()
	if !(*scale > 0) || math.IsInf(*scale, 1) { // NaN too
		fmt.Fprintf(os.Stderr, "adccbench: -scale must be positive and finite, got %g\n", *scale)
		os.Exit(2)
	}

	if *listOnly {
		for _, e := range adcc.Experiments() {
			fmt.Printf("  %-10s %s\n", e.Name, e.Title)
		}
		return
	}

	// -bench without an explicit -scale runs at the reduced bench
	// scale; resolve the effective scale before building the options.
	effScale := *scale
	if *benchMode {
		scaleSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "scale" {
				scaleSet = true
			}
		})
		if !scaleSet {
			effScale = defaultBenchScale
		}
	}

	opts := []adcc.Option{
		adcc.WithScale(effScale),
		adcc.WithParallelism(*parallel),
	}
	if *faultFlag != "" {
		var models []string
		for _, m := range strings.Split(*faultFlag, ",") {
			if m = strings.TrimSpace(m); m != "" {
				models = append(models, m)
			}
		}
		opts = append(opts, adcc.WithFaultModels(models...))
	}
	if *verbose {
		opts = append(opts, adcc.WithVerbose(os.Stderr))
	}
	if *events {
		opts = append(opts, adcc.WithEventSink(adcc.SinkFunc(func(e adcc.Event) {
			fmt.Fprintln(os.Stderr, e)
		})))
	}

	if *benchMode {
		os.Exit(runBench(opts, *jsonPath, *storePath, effScale, *verbose))
	}

	var selected []string
	if *expFlag == "all" {
		for _, e := range adcc.Experiments() {
			selected = append(selected, e.Name)
		}
	} else {
		known := map[string]bool{}
		for _, e := range adcc.Experiments() {
			known[e.Name] = true
		}
		for _, name := range strings.Split(*expFlag, ",") {
			name = strings.TrimSpace(name)
			if !known[name] {
				fmt.Fprintf(os.Stderr, "adccbench: unknown experiment %q (use -list)\n", name)
				os.Exit(2)
			}
			selected = append(selected, name)
		}
	}

	if *jsonPath != "" {
		opts = append(opts, adcc.WithCampaignJSON(*jsonPath))
	}
	if *storePath != "" {
		opts = append(opts, adcc.WithCampaignStore(*storePath))
	}
	runner := adcc.New(nil, opts...)
	ctx := context.Background()
	failed := false
	for _, name := range selected {
		start := time.Now()
		// A failed check returns its table with the error: print both.
		tab, err := runner.RunExperiment(ctx, name)
		if tab != nil && *asCSV {
			fmt.Printf("## %s\n", name)
			tab.FprintCSV(os.Stdout)
		} else if tab != nil {
			tab.Fprint(os.Stdout)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "adccbench: %s failed: %v\n", name, err)
			failed = true
			continue
		}
		if *verbose {
			fmt.Fprintf(os.Stderr, "[%s completed in %v]\n", name, time.Since(start))
		}
	}
	if failed {
		os.Exit(1)
	}
}

// runBench executes the kernel probes and the timed harness
// experiments, assembles a bench suite, and writes its adcc-report/v1
// envelope to jsonPath (stdout when empty). With storePath, the main
// campaign experiment also writes its raw rows to a result store (the
// fault sub-grid keeps its own spec and is excluded). Returns the
// process exit code.
func runBench(opts []adcc.Option, jsonPath, storePath string, scale float64, verbose bool) int {
	if verbose {
		fmt.Fprintf(os.Stderr, "bench: kernels + %s at scale %g\n",
			strings.Join(benchExperiments, ","), scale)
	}
	results := adcc.RunKernels()

	col := adcc.NewCollector()
	mainOpts := append(append([]adcc.Option{}, opts...), adcc.WithCollector(col))
	if storePath != "" {
		mainOpts = append(mainOpts, adcc.WithCampaignStore(storePath))
	}
	runner := adcc.New(nil, mainOpts...)
	ctx := context.Background()
	for _, name := range benchExperiments {
		start := time.Now()
		if _, err := runner.RunExperiment(ctx, name); err != nil {
			fmt.Fprintf(os.Stderr, "adccbench: bench experiment %s failed: %v\n", name, err)
			return 1
		}
		if verbose {
			fmt.Fprintf(os.Stderr, "[bench %s completed in %v]\n", name, time.Since(start))
		}
	}

	// The fault sub-grid: a fixed reduced campaign swept once per
	// non-fail-stop fault model, so benchdiff gates the survival rates
	// under torn writebacks, eADR drain, reordered writebacks, and bit
	// flips alongside the fail-stop rows. It runs in its own collector
	// because its "campaign/total" roll-up would collide with the main
	// campaign experiment's; the per-cell rows are distinct (their names
	// carry the "+<fault>" key suffix) and merge into the suite.
	faultCol := adcc.NewCollector()
	faultRunner := adcc.New(nil, append(append([]adcc.Option{}, opts...),
		adcc.WithCollector(faultCol),
		adcc.WithWorkloads("mc", "stencil"),
		adcc.WithSchemes(adcc.SchemeNative, adcc.SchemePMEM, adcc.SchemeAlgoNVM, adcc.SchemeAlgoEvery),
		adcc.WithFaultModels("torn", "eadr", "reorder", "bitflip"))...)
	start := time.Now()
	if _, err := faultRunner.RunCampaign(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "adccbench: bench fault sub-grid failed: %v\n", err)
		return 1
	}
	if verbose {
		fmt.Fprintf(os.Stderr, "[bench fault sub-grid completed in %v]\n", time.Since(start))
	}
	faultResults := faultCol.Results()
	merged := make([]adcc.Result, 0, len(faultResults))
	for _, r := range faultResults {
		if r.Name != "campaign/total" {
			merged = append(merged, r)
		}
	}

	suite := adcc.NewSuite(scale, append(append(results, col.Results()...), merged...))
	rep := adcc.NewBenchReport(suite)
	if jsonPath == "" {
		b, err := rep.EncodeJSON()
		if err != nil {
			fmt.Fprintf(os.Stderr, "adccbench: encode: %v\n", err)
			return 1
		}
		os.Stdout.Write(b)
		return 0
	}
	if err := rep.WriteFile(jsonPath); err != nil {
		fmt.Fprintf(os.Stderr, "adccbench: %v\n", err)
		return 1
	}
	if verbose {
		fmt.Fprintf(os.Stderr, "bench: wrote %d results to %s\n", len(suite.Results), jsonPath)
	}
	return 0
}
