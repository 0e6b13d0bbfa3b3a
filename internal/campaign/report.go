package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"adcc/internal/bench"
)

// SchemaVersion identifies the JSON layout of a campaign Report.
// Consumers refuse to compare files with mismatched schemas; bump only
// with a migration note in README.md.
const SchemaVersion = "adcc-campaign/v1"

// Outcome classifies one injection's end state.
type Outcome int

const (
	// OutcomeClean: the run recovered and completed with a verified
	// result, redoing no more than ~one main-loop iteration of work.
	OutcomeClean Outcome = iota
	// OutcomeRecomputed: the run recovered and verified, but detection
	// concluded more than one iteration of work had to be redone
	// (including full restarts of native runs).
	OutcomeRecomputed
	// OutcomeCorrupt: the run completed but verification failed — the
	// scheme silently produced a wrong result (the paper's Figure 10
	// failure mode).
	OutcomeCorrupt
	// OutcomeUnrecoverable: recovery or resumption itself failed (error
	// or panic); the persistent image was unusable under the scheme.
	OutcomeUnrecoverable
	// OutcomeNoCrash: the armed point never fired (the injection
	// coordinates fell outside the execution; counted separately so
	// sweep coverage is visible).
	OutcomeNoCrash
)

// String names the outcome as used in reports.
func (o Outcome) String() string {
	switch o {
	case OutcomeClean:
		return "clean"
	case OutcomeRecomputed:
		return "recomputed"
	case OutcomeCorrupt:
		return "corrupt"
	case OutcomeUnrecoverable:
		return "unrecoverable"
	case OutcomeNoCrash:
		return "no-crash"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// outcomeNames is the canonical name set in Outcome value order; it is
// what MarshalText emits, what ParseOutcome accepts, and the dictionary
// order result stores encode outcomes under.
var outcomeNames = []string{"clean", "recomputed", "corrupt", "unrecoverable", "no-crash"}

// OutcomeNames lists every outcome name in Outcome value order.
func OutcomeNames() []string {
	return append([]string(nil), outcomeNames...)
}

// ParseOutcome resolves an outcome name ("clean", "recomputed",
// "corrupt", "unrecoverable", "no-crash") to its Outcome value.
func ParseOutcome(name string) (Outcome, error) {
	for i, n := range outcomeNames {
		if n == name {
			return Outcome(i), nil
		}
	}
	return 0, fmt.Errorf("campaign: unknown outcome %q (want one of %s)",
		name, strings.Join(outcomeNames, ", "))
}

// MarshalText serializes the outcome as its name, so outcomes travel
// through JSON, result-store dictionaries, and query parameters as
// "clean"/"corrupt"/... instead of bare ints.
func (o Outcome) MarshalText() ([]byte, error) {
	if int(o) < 0 || int(o) >= len(outcomeNames) {
		return nil, fmt.Errorf("campaign: cannot marshal invalid outcome %d", int(o))
	}
	return []byte(outcomeNames[o]), nil
}

// UnmarshalText parses an outcome name.
func (o *Outcome) UnmarshalText(b []byte) error {
	v, err := ParseOutcome(string(b))
	if err != nil {
		return err
	}
	*o = v
	return nil
}

// CellReport aggregates every injection of one workload x scheme x
// system cell. All fields are deterministic functions of the code, the
// campaign scale, and the seed — byte-identical across hosts and
// worker counts.
type CellReport struct {
	Workload string `json:"workload"`
	Scheme   string `json:"scheme"`
	System   string `json:"system"`
	// FaultModel is the crash-time fault/persistency model swept in
	// this cell ("torn", "eadr", "reorder", "bitflip"); empty means
	// clean fail-stop, omitted from the JSON so fail-stop reports are
	// byte-identical to pre-fault-axis ones.
	FaultModel string `json:"fault_model,omitempty"`

	// Injections is the number of crash points swept in this cell.
	Injections int `json:"injections"`

	// Outcome counts; they sum to Injections.
	Clean         int `json:"clean"`
	Recomputed    int `json:"recomputed"`
	Corrupt       int `json:"corrupt"`
	Unrecoverable int `json:"unrecoverable"`
	NoCrash       int `json:"no_crash"`

	// RecoveryRate is (Clean + Recomputed) / crashed injections: the
	// fraction of crashes that ended in a verified result.
	RecoveryRate float64 `json:"recovery_rate"`

	// ProfileOps is the op count of one uninterrupted run of the cell's
	// workload (the crash-point coordinate space).
	ProfileOps int64 `json:"profile_ops"`
	// GrainOps is the op cost of one main-loop iteration, the unit
	// rework is judged against.
	GrainOps int64 `json:"grain_ops"`

	// Recovery-cost statistics, summed over crashed injections.
	// ReworkOps counts ops re-executed beyond the work the crash had
	// not yet reached (the recomputation the scheme forced).
	ReworkOps    int64 `json:"rework_ops"`
	MaxReworkOps int64 `json:"max_rework_ops"`
	// FlushLines counts cache-line flushes issued during recovery and
	// resumption.
	FlushLines int64 `json:"flush_lines"`
	// RecoverSimNS and ResumeSimNS are the simulated time spent in
	// post-crash detection/restore and in re-execution, respectively.
	RecoverSimNS int64 `json:"recover_sim_ns"`
	ResumeSimNS  int64 `json:"resume_sim_ns"`
}

// Failures counts injections that ended without a verified result.
func (c CellReport) Failures() int { return c.Corrupt + c.Unrecoverable }

// Add folds one injection row into the aggregate. It is the single
// accumulation step shared by the campaign engines and the result-store
// query layer (resultstore.Store.CampaignReport), so cell aggregates
// rebuilt from stored rows are field-identical to the ones a live run
// assembles.
func (c *CellReport) Add(r InjectionRow) {
	c.Injections++
	switch r.Outcome {
	case OutcomeClean:
		c.Clean++
	case OutcomeRecomputed:
		c.Recomputed++
	case OutcomeCorrupt:
		c.Corrupt++
	case OutcomeUnrecoverable:
		c.Unrecoverable++
	case OutcomeNoCrash:
		c.NoCrash++
	}
	c.ReworkOps += r.ReworkOps
	if r.ReworkOps > c.MaxReworkOps {
		c.MaxReworkOps = r.ReworkOps
	}
	c.FlushLines += r.FlushLines
	c.RecoverSimNS += r.RecoverSimNS
	c.ResumeSimNS += r.ResumeSimNS
}

// Finalize computes the derived field once every row has been added:
// the recovery rate over crashed injections.
func (c *CellReport) Finalize() {
	if crashed := c.Injections - c.NoCrash; crashed > 0 {
		c.RecoveryRate = float64(c.Clean+c.Recomputed) / float64(crashed)
	}
}

// Key is the cell's sweep coordinate, "workload/scheme@system" with a
// "+fault" suffix for non-fail-stop fault models — the name
// Config.Completed checkpoints and CellKeys enumerations use.
func (c CellReport) Key() string {
	k := fmt.Sprintf("%s/%s@%s", c.Workload, c.Scheme, c.System)
	if c.FaultModel != "" {
		k += "+" + c.FaultModel
	}
	return k
}

// Report is a full campaign run.
type Report struct {
	Schema string  `json:"schema"`
	Scale  float64 `json:"scale"`
	Seed   int64   `json:"seed"`
	// Injections is the total number swept across all cells.
	Injections int          `json:"injections"`
	Cells      []CellReport `json:"cells"`
}

// SortCells orders cells by (workload, scheme, system, fault model),
// the canonical report order. Fail-stop ("") sorts before every named
// model, keeping legacy rows in their legacy positions. Exported so the
// result-store query layer assembles reports in exactly this order.
func SortCells(cells []CellReport) {
	sort.Slice(cells, func(i, j int) bool {
		a, b := cells[i], cells[j]
		if a.Workload != b.Workload {
			return a.Workload < b.Workload
		}
		if a.Scheme != b.Scheme {
			return a.Scheme < b.Scheme
		}
		if a.System != b.System {
			return a.System < b.System
		}
		return a.FaultModel < b.FaultModel
	})
}

// EncodeJSON renders the report in its canonical form: two-space
// indentation, struct field order, trailing newline. Byte-stable for
// equal contents.
func (r *Report) EncodeJSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteFile writes the canonical encoding to path.
func (r *Report) WriteFile(path string) error {
	b, err := r.EncodeJSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// ReadFile parses a report and validates its schema tag.
func ReadFile(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("campaign: %s: %w", path, err)
	}
	if r.Schema != SchemaVersion {
		return nil, fmt.Errorf("campaign: %s: schema %q, want %q", path, r.Schema, SchemaVersion)
	}
	return &r, nil
}

// BenchResults renders the campaign as bench.Result rows (one per cell
// plus a roll-up), so the perf pipeline's benchdiff gate catches
// recovery-rate regressions: a cell whose Failures grow — or whose
// deterministic recovery cost drifts — fails the suite comparison.
func (r *Report) BenchResults() []bench.Result {
	out := make([]bench.Result, 0, len(r.Cells)+1)
	var total bench.Result
	total.Name = "campaign/total"
	for _, c := range r.Cells {
		res := bench.Result{
			Name:       "campaign/" + c.Key(),
			SimNS:      c.RecoverSimNS + c.ResumeSimNS,
			SimFlushes: c.FlushLines,
			RecoveryNS: c.RecoverSimNS,
			Injections: int64(c.Injections),
			Failures:   int64(c.Failures()),
		}
		out = append(out, res)
		total.SimNS += res.SimNS
		total.SimFlushes += res.SimFlushes
		total.RecoveryNS += res.RecoveryNS
		total.Injections += res.Injections
		total.Failures += res.Failures
	}
	return append(out, total)
}
