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
//	-sim-threshold F    allowed fractional growth of a metric (sim_ns,
//	                    sim_flushes, recovery_sim_ns, failures) before
//	                    flagging; every metric is deterministic and
//	                    host-independent, so the default is tight
//	                    (default 0.02). An explicit 0 demands exact
//	                    equality.
//	-all                print every metric comparison, not only the
//	                    regressions and improvements
//
// A benchmark present in the baseline but missing from the candidate is
// a regression (a perf guarantee disappeared); benchmarks only in the
// candidate are reported as added. Every regression fails the run:
// the suite holds no host wall-clock number (those are measured by
// benchmark/), so there is nothing advisory in it. Two suites recorded
// at different scales have no valid comparison and are refused.
//
// Exit codes: 0 no regression, 1 regression found, 2 usage or file
// errors (including a scale mismatch).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
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

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command over explicit arguments and streams, so the
// tests drive the exit codes directly; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	simThr := fs.Float64("sim-threshold", 0.02, "allowed fractional growth of simulated metrics (0 = exact)")
	verbose := fs.Bool("all", false, "print every comparison, not only regressions/improvements")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchdiff [flags] BASELINE.json CANDIDATE.json")
		fs.PrintDefaults()
		return 2
	}

	base, err := readSuite(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}
	cand, err := readSuite(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 2
	}
	if base.Scale != cand.Scale {
		fmt.Fprintf(stderr,
			"benchdiff: comparing suites recorded at different scales (%g vs %g); harness sim metrics are not comparable across scales\n",
			base.Scale, cand.Scale)
		return 2
	}

	rep := adcc.DiffSuites(base, cand, adcc.DiffOptions{SimThreshold: *simThr})
	fmt.Fprintf(stdout, "benchdiff: %s (baseline) vs %s (candidate)\n", fs.Arg(0), fs.Arg(1))
	rep.Format(stdout, *verbose)
	if rep.HasRegression() {
		return 1
	}
	return 0
}
