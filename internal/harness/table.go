// Package harness contains the experiment drivers that regenerate every
// table and figure of the paper's evaluation (§III), plus ablation
// studies for the reproduction's design choices and the statistical
// crash-injection campaign's survival table. Each driver builds the
// simulated platform(s), runs the workload under the relevant
// mechanisms, and emits a text table whose rows correspond to the
// figure's bars or series. Drivers fan independent cases through the
// engine's bounded worker pool and collect results by case index, so
// tables are byte-identical at any Options.Parallel setting.
package harness

import (
	"context"
	"fmt"
	"io"
	"strings"

	"adcc/internal/bench"
	"adcc/internal/engine"
)

// Table is a rendered experiment result.
type Table struct {
	Name    string
	Title   string
	Headers []string
	Rows    [][]string
	// Notes are free-form lines printed under the table (scaling
	// caveats, paper reference values, annotations).
	Notes []string
}

// AddRow appends a row, formatting each cell with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// AddNote appends a formatted note line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.Name, t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}

// FprintCSV renders the table as CSV (header row first, notes as
// trailing comment lines).
func (t *Table) FprintCSV(w io.Writer) {
	quote := func(cells []string) string {
		out := make([]string, len(cells))
		for i, c := range cells {
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			out[i] = c
		}
		return strings.Join(out, ",")
	}
	fmt.Fprintln(w, quote(t.Headers))
	for _, row := range t.Rows {
		fmt.Fprintln(w, quote(row))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
}

// Options configures an experiment run.
type Options struct {
	// Scale multiplies the problem sizes; 1.0 reproduces the
	// paper-shape defaults, smaller values give CI-sized runs.
	Scale float64
	// Verbose enables progress notes on Out.
	Verbose bool
	// Out receives progress output when Verbose is set.
	Out io.Writer
	// Parallel bounds how many of an experiment's independent cases run
	// concurrently; values <= 1 run serially. Results are collected in
	// case order, so tables are byte-identical at any setting.
	Parallel int
	// Collector, when non-nil, receives one bench.Result per measured
	// experiment case (named "<experiment>/<case>"), carrying the
	// deterministic simulated timings. Recording is concurrency-safe
	// and sorted on snapshot, so the collected suite is identical
	// between serial and parallel runs.
	Collector *bench.Collector
	// CampaignJSON, when non-empty, makes the campaign experiment write
	// its full machine-readable report (wrapped in the adcc-report/v1
	// envelope) to this path.
	CampaignJSON string
	// CampaignStore, when non-empty, makes the campaign experiment
	// write every injection's raw outcome row to a columnar result
	// store (internal/resultstore) at this path. Store bytes are a pure
	// function of the campaign spec — identical at any Parallel.
	CampaignStore string
	// Seed drives the campaign experiment's crash-point selection; the
	// default 0 is a valid seed. The figure experiments use fixed
	// paper-shape seeds and ignore it.
	Seed int64
	// Workloads, Schemes, and PerCell configure the campaign
	// experiment's sweep grid (see campaign.Config); the figure
	// experiments reproduce the paper's fixed case sets and ignore
	// them.
	Workloads []string
	Schemes   []string
	PerCell   int
	// FaultModels selects the campaign experiment's crash-time
	// fault/persistency models (campaign.Config.FaultModels); nil
	// sweeps clean fail-stop only.
	FaultModels []string
	// Registry holds the workload table and scheme names the campaign
	// experiment sweeps; nil means the built-ins. The figure experiments
	// always run the paper's built-in seven cases.
	Registry *engine.Registry
	// Events, when non-nil, receives the streaming progress events
	// (case started/finished, injection outcomes) in deterministic
	// case-index order — the stream is byte-identical at any Parallel
	// setting.
	Events engine.EventSink
}

func (o Options) scale() float64 {
	if o.Scale <= 0 {
		return 1.0
	}
	return o.Scale
}

// scaleInt applies the scale factor with a floor.
func (o Options) scaleInt(v, floor int) int {
	return max(int(float64(v)*o.scale()), floor)
}

func (o Options) logf(format string, args ...any) {
	if o.Verbose && o.Out != nil {
		fmt.Fprintf(o.Out, format+"\n", args...)
	}
}

// Experiment is a named, runnable reproduction unit. Run honors ctx:
// cancellation stops the dispatch of queued cases and surfaces
// ctx.Err().
type Experiment struct {
	Name  string
	Title string
	Run   func(ctx context.Context, o Options) (*Table, error)
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{"fig3", "CG recomputation cost vs input class (paper Figure 3)", RunFig3},
		{"fig4", "CG runtime under seven mechanisms (paper Figure 4)", RunFig4},
		{"fig7", "ABFT-MM recomputation cost, two crash tests (paper Figure 7)", RunFig7},
		{"fig8", "ABFT-MM runtime under seven mechanisms x rank (paper Figure 8)", RunFig8},
		{"fig10", "XSBench counts: no-crash vs naive restart (paper Figure 10)", RunFig10},
		{"fig12", "XSBench counts: no-crash vs selective flushing (paper Figure 12)", RunFig12},
		{"fig13", "XSBench runtime under mechanisms (paper Figure 13)", RunFig13},
		{"summary", "Headline-claim validation across all runtime figures", RunSummary},
		{"campaign", "Statistical crash-injection campaign: per-scheme survival and recovery cost", RunCampaign},
		{"stencil", "Extension: Jacobi heat stencil under mechanisms, with algorithm-directed recovery", RunStencil},
		{"kvlog", "Extension: persistent KV store under request traffic, with log-replay recovery", RunKVLog},
		{"cg-cache", "Ablation: CG recomputation vs LLC size", RunCGCacheAblation},
		{"clwb", "Ablation: CLFLUSH vs CLWB for the algorithm-directed flushes (paper §II prediction)", RunCLWBAblation},
		{"mc-flush", "Ablation: MC flush period vs overhead and accuracy (incl. the paper's 16% every-iteration claim)", RunMCFlushAblation},
		{"mm-k", "Ablation: MM rank k vs memory and recomputation (paper §III-C tradeoff)", RunMMKAblation},
	}
}

// ByName finds an experiment.
func ByName(name string) (Experiment, bool) {
	for _, e := range All() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}
