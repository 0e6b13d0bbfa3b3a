package adcc

import (
	"context"
	"fmt"
	"io"
	"math"

	"adcc/internal/campaign"
	"adcc/internal/crash"
	"adcc/internal/engine"
	"adcc/internal/harness"
)

// Table is a rendered experiment result (aligned text via Fprint /
// String, CSV via FprintCSV).
type Table = harness.Table

// ExperimentInfo names one runnable reproduction unit of the harness.
type ExperimentInfo struct {
	// Name is the key RunExperiment accepts ("fig3", "campaign", ...).
	Name string
	// Title is the human-readable description.
	Title string
}

// Experiments lists every harness experiment in presentation order:
// the paper's figures, the headline-claim summary, the campaign, and
// the ablations.
func Experiments() []ExperimentInfo {
	all := harness.All()
	out := make([]ExperimentInfo, len(all))
	for i, e := range all {
		out[i] = ExperimentInfo{Name: e.Name, Title: e.Title}
	}
	return out
}

// Option configures a Runner.
type Option func(*Runner)

// WithScale sets the problem-size scale factor: 1.0 (the default)
// reproduces the paper-shape sizes, smaller values give CI-sized runs
// with the same qualitative behaviour.
func WithScale(scale float64) Option {
	return func(r *Runner) { r.scale = scale }
}

// WithParallelism bounds how many independent cases (experiment cases,
// workload runs, campaign cells) execute concurrently; values <= 1
// run serially. Every result — tables, reports, event streams — is
// byte-identical at any setting.
func WithParallelism(n int) Option {
	return func(r *Runner) { r.parallel = n }
}

// WithSeed sets the campaign's crash-point seed (the default 0 is a
// valid seed). The figure experiments use fixed paper-shape seeds.
func WithSeed(seed int64) Option {
	return func(r *Runner) { r.seed = seed }
}

// WithSchemes restricts sweeps to the named schemes: Run sweeps exactly
// these (instead of the workload's defaults), and campaign runs —
// RunCampaign and the "campaign" experiment — filter their grid to
// them (explicitly named custom schemes join the grid). Names resolve
// in the runner's registry at run time. The figure experiments
// reproduce the paper's fixed seven-case comparison and ignore it.
func WithSchemes(names ...string) Option {
	return func(r *Runner) { r.schemes = names }
}

// WithWorkloads restricts campaign runs (RunCampaign and the
// "campaign" experiment) to the named workloads of the runner's
// registry; nil means every registered workload, built-ins first. An
// unknown name is an error. The figure experiments each study one fixed
// workload and ignore it.
func WithWorkloads(names ...string) Option {
	return func(r *Runner) { r.workloads = names }
}

// WithInjectionsPerCell overrides the campaign's number of injections
// per cell (0 = scaled default). Only campaign runs use it.
func WithInjectionsPerCell(n int) Option {
	return func(r *Runner) { r.perCell = n }
}

// WithFaultModels selects the crash-time fault/persistency models
// campaign runs sweep (see ParseFaultModel for the names: "failstop",
// "torn", "eadr", "reorder", "bitflip"). Each named model adds one
// grid axis value: every workload/scheme/system cell is swept once per
// model, over the same crash points, so outcome differences between
// models measure the model rather than a different sample. Nil (the
// default) sweeps clean fail-stop only, producing reports
// byte-identical to runners without the option.
func WithFaultModels(models ...string) Option {
	return func(r *Runner) { r.faultModels = models }
}

// WithCampaignResume seeds RunCampaign with cells already aggregated by
// a previous run, keyed by CampaignCell.Key ("workload/scheme@system",
// see CampaignCells). Seeded cells are skipped entirely — no profiling,
// no injections, no events — and their stored reports are spliced into
// the final report, which stays byte-identical to an uninterrupted
// run's. This is the resume half of the checkpointing pair adccd uses;
// WithCampaignCheckpoint is the persistence half.
func WithCampaignResume(completed map[string]CampaignCell) Option {
	return func(r *Runner) { r.completed = completed }
}

// WithCampaignCheckpoint attaches a shard checkpoint hook to
// RunCampaign: fn is called once per freshly executed cell with the
// cell's aggregated CampaignCell, in deterministic grid order, as soon
// as the cell's last injection has been observed. Persisting each cell
// and feeding them back through WithCampaignResume lets an interrupted
// campaign continue instead of restarting. fn runs on the sweep's
// ordered observation path; keep it fast.
func WithCampaignCheckpoint(fn func(CampaignCell)) Option {
	return func(r *Runner) { r.onCell = fn }
}

// WithCollector attaches a benchmark collector: every measured case
// records one Result (named "<experiment>/<case>" or
// "<workload>/<scheme>") carrying the deterministic simulated timings.
func WithCollector(c *Collector) Option {
	return func(r *Runner) { r.collector = c }
}

// WithEventSink attaches a streaming event sink. Events are emitted in
// deterministic case-index order; see Event.
func WithEventSink(sink EventSink) Option {
	return func(r *Runner) { r.sink = sink }
}

// WithVerbose enables progress notes on w while runs execute.
func WithVerbose(w io.Writer) Option {
	return func(r *Runner) { r.verbose, r.out = true, w }
}

// WithCampaignJSON makes campaign runs (RunCampaign and the "campaign"
// experiment) write the full machine-readable report, wrapped in the
// adcc-report/v1 envelope, to path.
func WithCampaignJSON(path string) Option {
	return func(r *Runner) { r.campaignJSON = path }
}

// WithCampaignStore makes campaign runs (RunCampaign and the
// "campaign" experiment) write every injection's raw outcome row to a
// columnar result store at path (conventionally "*.adccs"). The file
// bytes are a pure function of the campaign spec — identical at any
// parallelism — and OpenResultStore queries them:
// filters, streamed rows, percentile distributions, and the rebuilt
// campaign report the v1 envelope is exported from. Incompatible with
// WithCampaignResume: restored cells carry no per-injection rows.
func WithCampaignStore(path string) Option {
	return func(r *Runner) { r.campaignStore = path }
}

// Runner executes workload sweeps, harness experiments, and
// crash-injection campaigns against one Registry. Build it with New,
// configure it with functional options, and drive it with Run,
// RunExperiment, or RunCampaign — each takes a context.Context whose
// cancellation stops the dispatch of queued cases promptly and
// surfaces ctx.Err().
//
// A Runner is immutable after New and safe for concurrent use, except
// that an attached EventSink sees one sequential stream per call — run
// concurrent sweeps with separate sinks.
type Runner struct {
	reg           *Registry
	scale         float64
	parallel      int
	seed          int64
	schemes       []string
	workloads     []string
	perCell       int
	faultModels   []string
	completed     map[string]CampaignCell
	onCell        func(CampaignCell)
	collector     *Collector
	sink          EventSink
	verbose       bool
	out           io.Writer
	campaignJSON  string
	campaignStore string
}

// New builds a Runner over reg (nil means a fresh NewRegistry with the
// built-in schemes and workloads).
func New(reg *Registry, opts ...Option) *Runner {
	if reg == nil {
		reg = NewRegistry()
	}
	r := &Runner{reg: reg, scale: 1.0}
	for _, o := range opts {
		o(r)
	}
	return r
}

// Registry returns the registry the runner resolves names in.
func (r *Runner) Registry() *Registry { return r.reg }

// CaseResult is the outcome of one workload x scheme run of a sweep.
type CaseResult struct {
	// Scheme and System identify the case.
	Scheme string `json:"scheme"`
	System string `json:"system"`
	// SimNS is the deterministic simulated duration of the run.
	SimNS int64 `json:"sim_ns"`
	// Err is the build/verification failure, empty when the run
	// completed and verified.
	Err string `json:"err,omitempty"`
	// Metrics are the workload's native measurements of the run.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// RunReport is the outcome of a Runner.Run sweep: one CaseResult per
// scheme, in sweep order.
type RunReport struct {
	Workload string       `json:"workload"`
	Scale    float64      `json:"scale"`
	Cases    []CaseResult `json:"cases"`
}

// Failed returns the cases that did not complete and verify.
func (r *RunReport) Failed() []CaseResult {
	var out []CaseResult
	for _, c := range r.Cases {
		if c.Err != "" {
			out = append(out, c)
		}
	}
	return out
}

// runSchemes resolves the scheme list a sweep covers: WithSchemes, else
// the workload's own list, else the seven cases.
func (r *Runner) runSchemes(own []string) ([]Scheme, error) {
	names := r.schemes
	if len(names) == 0 {
		names = own
	}
	if len(names) == 0 {
		return r.reg.SevenCases(), nil
	}
	out := make([]Scheme, len(names))
	for i, n := range names {
		sc, ok := r.reg.Scheme(n)
		if !ok {
			return nil, fmt.Errorf("adcc: unknown scheme %q", n)
		}
		out[i] = sc
	}
	return out, nil
}

// Run sweeps one registered workload across the configured schemes:
// for each scheme it builds a fresh machine on the scheme's platform,
// runs the workload to completion, verifies the result, and reports
// the deterministic simulated runtime and the workload's metrics.
// Custom workloads and custom schemes registered on the runner's
// Registry sweep exactly like the built-ins.
func (r *Runner) Run(ctx context.Context, workload string) (*RunReport, error) {
	fam, ok := r.reg.eng.Family(workload)
	if !ok {
		return nil, fmt.Errorf("adcc: unknown workload %q", workload)
	}
	schemes, err := r.runSchemes(fam.Schemes)
	if err != nil {
		return nil, err
	}
	shared := fam.SharedAt(r.scale) // built once, read by every case
	rep := &RunReport{Workload: workload, Scale: r.scale}
	// Case failures land in CaseResult.Err (the sweep itself keeps
	// going), so the event stream is built here rather than through
	// engine.EmitCases: a failed case must stream its error, not "ok".
	var observe func(i int, v CaseResult, err error)
	if r.sink != nil {
		exp := "run/" + workload
		observe = func(i int, v CaseResult, _ error) {
			r.sink.Emit(engine.CaseStarted{
				Experiment: exp, Case: schemes[i].Name(), Index: i, Total: len(schemes),
			})
			r.sink.Emit(engine.CaseFinished{
				Experiment: exp, Case: schemes[i].Name(), Index: i, Total: len(schemes),
				Err: v.Err,
			})
		}
	}
	cases, err := engine.RunCasesObserved(ctx, r.parallel, len(schemes),
		func(i int) (CaseResult, error) {
			sc := schemes[i]
			r.logf("run/%s: case %s", workload, sc.Name())
			res := CaseResult{Scheme: sc.Name(), System: sc.System().String()}
			w, err := fam.New(sc, r.scale, shared)
			if err != nil {
				res.Err = err.Error()
				return res, nil
			}
			m := crash.NewMachine(crash.MachineConfig{System: sc.System()})
			if err := w.Prepare(m, nil); err != nil {
				res.Err = err.Error()
				return res, nil
			}
			start := m.Clock.Now()
			w.Run(w.Start())
			res.SimNS = m.Clock.Since(start)
			if err := w.Verify(); err != nil {
				res.Err = err.Error()
				return res, nil
			}
			res.Metrics = w.Metrics()
			r.collector.Record(Result{
				Name:  fmt.Sprintf("%s/%s", workload, sc.Name()),
				SimNS: res.SimNS,
			})
			return res, nil
		}, observe)
	if err != nil {
		return nil, err
	}
	rep.Cases = cases
	return rep, nil
}

// RunExperiment runs one harness experiment by name (see Experiments)
// and returns its rendered table. A failed check (a "summary" claim)
// returns the table with the error; a NaN or infinite scale is an error.
func (r *Runner) RunExperiment(ctx context.Context, name string) (*Table, error) {
	e, ok := harness.ByName(name)
	if !ok {
		return nil, fmt.Errorf("adcc: unknown experiment %q (see Experiments)", name)
	}
	if math.IsNaN(r.scale) || math.IsInf(r.scale, 0) {
		return nil, fmt.Errorf("adcc: scale %v is not a finite number", r.scale)
	}
	return e.Run(ctx, harness.Options{
		Scale:         r.scale,
		Parallel:      r.parallel,
		Seed:          r.seed,
		Workloads:     r.workloads,
		Schemes:       r.schemes,
		PerCell:       r.perCell,
		FaultModels:   r.faultModels,
		Registry:      r.reg.eng,
		Verbose:       r.verbose,
		Out:           r.out,
		Collector:     r.collector,
		Events:        r.sink,
		CampaignJSON:  r.campaignJSON,
		CampaignStore: r.campaignStore,
	})
}

// RunCampaign executes the statistical crash-injection campaign over
// the configured workload/scheme grid and returns its deterministic
// report. With WithCollector, every cell also records a bench Result;
// with WithCampaignJSON, the enveloped report is written to disk; with
// WithEventSink, every injection streams an InjectionDone event.
func (r *Runner) RunCampaign(ctx context.Context) (*CampaignReport, error) {
	return harness.RunCampaignConfig(ctx, campaign.Config{
		Scale:       r.scale,
		Seed:        r.seed,
		Parallel:    r.parallel,
		PerCell:     r.perCell,
		Workloads:   r.workloads,
		Schemes:     r.schemes,
		FaultModels: r.faultModels,
		Registry:    r.reg.eng,
		Events:      r.sink,
		Completed:   r.completed,
		OnCell:      r.onCell,
		Verbose:     r.verbose,
		Out:         r.out,
	}, r.campaignStore, r.campaignJSON, r.collector)
}

// CampaignTable renders a campaign report as the per-scheme survival
// table shown by adccbench and crashsim.
func CampaignTable(rep *CampaignReport) *Table {
	return harness.CampaignTable(rep)
}

func (r *Runner) logf(format string, args ...any) {
	if r.verbose && r.out != nil {
		fmt.Fprintf(r.out, format+"\n", args...)
	}
}
