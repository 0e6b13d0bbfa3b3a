package bench

import (
	"fmt"
	"io"
	"math"
)

// DiffOptions tunes the regression comparison. The threshold is used
// exactly as given: zero demands exact equality (any growth flags).
// cmd/benchdiff supplies its own default (0.02).
type DiffOptions struct {
	// SimThreshold is the allowed fractional growth of a metric before a
	// delta counts as a regression. Every metric is deterministic, so
	// drift means the simulated behaviour changed.
	SimThreshold float64
}

// Delta is one metric comparison between two suites.
type Delta struct {
	Name   string  // benchmark name
	Metric string  // metric label, e.g. "sim_ns" or "failures"
	Old    float64 // baseline value
	New    float64 // candidate value
	// Ratio is New/Old (+Inf when the metric appeared from zero).
	Ratio float64
	// Regression is set when the growth exceeds the threshold.
	Regression bool
	// Improved is set when the metric shrank beyond the same threshold.
	Improved bool
}

// Report is the outcome of comparing a candidate suite to a baseline.
type Report struct {
	Deltas []Delta
	// Missing lists benchmarks present in the baseline but absent from
	// the candidate — treated as regressions (a benchmark that
	// disappears is a lost perf guarantee).
	Missing []string
	// Added lists benchmarks only present in the candidate.
	Added []string
}

// metric describes one comparable Result field. measured distinguishes
// a true zero (comparable: sim_flushes of a flush-free probe, failures
// of a healthy campaign cell) from "this result never measured that
// metric" (kernel probes and harness cases carry no injections, most
// cases no recovery time).
type metric struct {
	label    string
	get      func(Result) float64
	measured func(Result) bool
}

// simMeasured: the deterministic probe ran (every probe advances the
// simulated clock, so SimNS is positive whenever sim metrics exist).
func simMeasured(r Result) bool { return r.SimNS > 0 }

var metrics = []metric{
	{"sim_ns", func(r Result) float64 { return float64(r.SimNS) }, simMeasured},
	{"sim_flushes", func(r Result) float64 { return float64(r.SimFlushes) }, simMeasured},
	{"recovery_sim_ns", func(r Result) float64 { return float64(r.RecoveryNS) },
		func(r Result) bool { return r.RecoveryNS > 0 }},
	// Campaign failure counts are deterministic, and a measured zero is
	// the expected healthy value for the algorithm-directed schemes, so
	// any failure appearing from zero flags as a regression.
	{"failures", func(r Result) float64 { return float64(r.Failures) },
		func(r Result) bool { return r.Injections > 0 }},
}

// Diff compares candidate against base metric by metric. A metric is
// compared when both suites measured it; a measured zero is a real
// value, so 0 -> N flags as a regression and N -> 0 as an improvement.
func Diff(base, candidate Suite, o DiffOptions) Report {
	var rep Report
	newByName := candidate.byName()
	for _, b := range base.Results {
		n, ok := newByName[b.Name]
		if !ok {
			rep.Missing = append(rep.Missing, b.Name)
			continue
		}
		for _, m := range metrics {
			if m.measured(b) && !m.measured(n) {
				// A metric family the baseline guaranteed is no longer
				// measured: a lost perf guarantee, same as a missing
				// benchmark.
				rep.Missing = append(rep.Missing, b.Name+" ["+m.label+"]")
				continue
			}
			if !m.measured(b) || !m.measured(n) {
				continue
			}
			ov, nv := m.get(b), m.get(n)
			if ov == 0 && nv == 0 {
				continue
			}
			d := Delta{Name: b.Name, Metric: m.label, Old: ov, New: nv}
			switch {
			case ov == 0: // metric appeared from a measured zero
				d.Ratio = math.Inf(1)
				d.Regression = true
			default:
				d.Ratio = nv / ov
				d.Regression = d.Ratio > 1+o.SimThreshold
				d.Improved = d.Ratio < 1-o.SimThreshold
			}
			rep.Deltas = append(rep.Deltas, d)
		}
	}
	baseNames := base.byName()
	for _, n := range candidate.Results {
		if _, ok := baseNames[n.Name]; !ok {
			rep.Added = append(rep.Added, n.Name)
		}
	}
	return rep
}

// HasRegression reports whether any metric regressed or any baseline
// benchmark went missing.
func (r Report) HasRegression() bool {
	if len(r.Missing) > 0 {
		return true
	}
	for _, d := range r.Deltas {
		if d.Regression {
			return true
		}
	}
	return false
}

// Format writes a human-readable summary. With verbose set every
// comparison is printed; otherwise only regressions, improvements, and
// the roll-up counts.
func (r Report) Format(w io.Writer, verbose bool) {
	regressions, improvements, ok := 0, 0, 0
	for _, d := range r.Deltas {
		switch {
		case d.Regression:
			regressions++
		case d.Improved:
			improvements++
		default:
			ok++
		}
	}
	for _, d := range r.Deltas {
		tag := ""
		switch {
		case d.Regression:
			tag = "REGRESSION "
		case d.Improved:
			tag = "improved   "
		case verbose:
			tag = "ok         "
		default:
			continue
		}
		change := fmt.Sprintf("%+.1f%%", 100*(d.Ratio-1))
		if math.IsInf(d.Ratio, 1) {
			change = "appeared from 0"
		}
		fmt.Fprintf(w, "%s %-34s %-15s %12.1f -> %12.1f  (%s)\n",
			tag, d.Name, d.Metric, d.Old, d.New, change)
	}
	for _, name := range r.Missing {
		fmt.Fprintf(w, "MISSING     %s (in baseline, absent from candidate)\n", name)
	}
	for _, name := range r.Added {
		fmt.Fprintf(w, "added       %s (not in baseline)\n", name)
	}
	names := map[string]bool{}
	for _, d := range r.Deltas {
		names[d.Name] = true
	}
	fmt.Fprintf(w, "benchdiff: compared %d metrics across %d benchmarks: %d regressed, %d improved, %d unchanged, %d missing, %d added\n",
		len(r.Deltas), len(names), regressions, improvements, ok, len(r.Missing), len(r.Added))
}
