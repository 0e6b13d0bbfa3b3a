// Command benchdiff compares two benchmark result files produced by
// `adccbench -bench -json` and exits non-zero when the candidate
// regresses against the baseline. It reads the adcc-report/v1
// envelope and columnar result stores written with -store — a store's
// cell aggregates are rebuilt through the query layer and compared like
// a campaign report's.
//
// Usage:
//
//	benchdiff [flags] BASELINE.json CANDIDATE.json
//
//	-wall-threshold F   allowed fractional growth of wall-clock metrics
//	                    (ns/op, allocs/op, B/op) before flagging; host
//	                    wall numbers vary across machines, so keep this
//	                    generous (default 0.25). An explicit 0 demands
//	                    exact equality.
//	-sim-threshold F    allowed fractional growth of deterministic
//	                    simulated metrics (sim_ns, sim_flushes,
//	                    recovery_sim_ns); these are host-independent, so
//	                    the default is tight (default 0.02). An explicit
//	                    0 demands exact equality.
//	-wall-advisory      report wall-clock regressions but never fail on
//	                    them; only simulated-metric drift and missing
//	                    benchmarks affect the exit code. Use when the
//	                    baseline was recorded on different hardware
//	                    (CI enforcing on main).
//	-report-only        print the comparison but always exit 0 (used on
//	                    pull requests, where the report is advisory)
//	-all                print every metric comparison, not only the
//	                    regressions and improvements
//
// A benchmark present in the baseline but missing from the candidate is
// a regression (a perf guarantee disappeared); benchmarks only in the
// candidate are reported as added.
//
// Exit codes: 0 no regression (or -report-only), 1 regression found,
// 2 usage or file errors.
package main

import (
	"flag"
	"fmt"
	"os"

	"adcc/pkg/adcc"
)

// readSuite loads a bench suite from a report file, or — when the path is a columnar result store — from the cell
// aggregates rebuilt by the store's query layer. Either way duplicate
// benchmark names are rejected: in a plain name index the last row
// would silently win and the comparison would prove nothing about the
// shadowed result.
func readSuite(path string) (adcc.Suite, error) {
	var suite adcc.Suite
	if adcc.IsResultStore(path) {
		s, err := adcc.OpenResultStore(path)
		if err != nil {
			return adcc.Suite{}, err
		}
		defer s.Close()
		rep, err := s.CampaignReport()
		if err != nil {
			return adcc.Suite{}, err
		}
		suite = adcc.NewSuite(s.Scale(), rep.BenchResults())
	} else {
		rep, err := adcc.ReadReport(path)
		if err != nil {
			return adcc.Suite{}, err
		}
		if suite, err = rep.BenchSuite(); err != nil {
			return adcc.Suite{}, err
		}
	}
	if err := suite.Validate(); err != nil {
		return adcc.Suite{}, fmt.Errorf("%s: %w", path, err)
	}
	return suite, nil
}

func main() {
	var (
		wallThr      = flag.Float64("wall-threshold", 0.25, "allowed fractional growth of wall-clock metrics (0 = exact)")
		simThr       = flag.Float64("sim-threshold", 0.02, "allowed fractional growth of simulated metrics (0 = exact)")
		wallAdvisory = flag.Bool("wall-advisory", false, "report wall-clock regressions without failing on them")
		reportOnly   = flag.Bool("report-only", false, "report without failing on regressions")
		verbose      = flag.Bool("all", false, "print every comparison, not only regressions/improvements")
	)
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [flags] BASELINE.json CANDIDATE.json")
		flag.PrintDefaults()
		os.Exit(2)
	}

	base, err := readSuite(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	cand, err := readSuite(flag.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}

	if base.Scale != cand.Scale {
		fmt.Fprintf(os.Stderr,
			"benchdiff: warning: comparing suites recorded at different scales (%g vs %g); harness sim metrics are not comparable across scales\n",
			base.Scale, cand.Scale)
	}

	rep := adcc.DiffSuites(base, cand, adcc.DiffOptions{
		WallThreshold: *wallThr,
		SimThreshold:  *simThr,
	})
	fmt.Printf("benchdiff: %s (baseline) vs %s (candidate)\n", flag.Arg(0), flag.Arg(1))
	rep.Format(os.Stdout, *verbose)

	if rep.HasBlockingRegression(*wallAdvisory) {
		if *reportOnly {
			fmt.Println("benchdiff: regressions found (report-only mode, not failing)")
			return
		}
		os.Exit(1)
	}
	if *wallAdvisory && rep.HasRegression() {
		fmt.Println("benchdiff: wall-clock regressions reported above are advisory (-wall-advisory)")
	}
}
