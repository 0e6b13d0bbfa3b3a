// Package campaign is the statistical fault-injection engine built on
// the crash emulator: where cmd/crashsim inspects one hand-picked crash
// point, a campaign sweeps thousands of deterministic points — seeded
// random memory-operation counts plus random occurrences of every
// instrumented program point — across every supported workload x scheme
// x platform cell, recovers each injection under the cell's scheme, and
// classifies the end state (clean recovery, detected-and-recomputed,
// silent corruption, unrecoverable) together with recovery-cost
// statistics (rework ops, flush traffic, simulated time).
//
// There is one engine. Each cell runs its workload twice — a profiling
// run that learns the crash-point space, and a recording run that pauses
// at every scheduled point and captures the post-crash state (persistent
// images, auxiliary state, fault overlay) copy-on-write. Points whose
// captures are equal crash into identical machines, so they are merged
// into equivalence classes and recovery is forked once per class from a
// restored capture instead of once per point from op 0. The from-scratch
// per-injection engine this replaced lives on in oracle_test.go as the
// differential oracle: both must produce the same bytes.
//
// Every crash point derives from a per-cell seed and every cost is a
// simulated-clock delta, so the campaign is fully deterministic: the
// aggregated Report is byte-identical for any worker-pool width (cells
// fan through engine.RunCases and are collected by index). The JSON
// report feeds cmd/benchdiff via Report.BenchResults, letting CI gate on
// recovery-rate regressions.
package campaign

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"slices"

	"adcc/internal/cache"
	"adcc/internal/crash"
	"adcc/internal/engine"
	"adcc/internal/families"
	"adcc/internal/mem"
)

// Config parameterizes a campaign run.
type Config struct {
	// Scale multiplies problem sizes and sweep density; 1.0 is the full
	// campaign (thousands of injections), small values give CI-sized
	// smokes. Zero means 1.0.
	Scale float64
	// Seed drives crash-point selection (per-cell seeds derive from it).
	// The default 0 is a valid seed.
	Seed int64
	// Parallel bounds how many cells run concurrently through the
	// engine's worker pool; <= 1 is serial. The report is byte-identical
	// at any setting.
	Parallel int
	// PerCell overrides the number of injections per cell (0 = scaled
	// default: 120 at scale 1.0, floor 8).
	PerCell int
	// Workloads restricts the sweep to the named workload families of
	// Registry; nil means every registered family, in registration order.
	// An unknown name is an error.
	Workloads []string
	// Schemes restricts the sweep to the named schemes; nil means each
	// family's own list (engine.Family.Schemes). Names outside a family's
	// list are resolved in Registry and added to every selected
	// workload's grid, so explicitly named custom schemes are swept
	// (under the extended implementation for KindAlgo schemes, under
	// the Guard-driven baselines otherwise).
	Schemes []string
	// FaultModels selects the crash-time fault/persistency models swept
	// as a fourth grid axis ("failstop", "torn", "eadr", "reorder",
	// "bitflip"); nil or empty sweeps clean fail-stop only, exactly the
	// legacy grid. Each named model multiplies the grid. Fail-stop cells
	// keep their legacy keys; every other model suffixes its cells'
	// keys with "+<model>", so fail-stop reports (and checkpoints and
	// cache keys derived from them) are byte-identical with or without
	// an explicit "failstop" entry.
	FaultModels []string
	// Registry holds the workload table and resolves scheme names; nil
	// means the built-ins (families.NewRegistry). Workload families
	// registered on an instance registry join the grid after the
	// built-ins; custom schemes become sweepable by naming them in
	// Schemes.
	Registry *engine.Registry
	// Events, when non-nil, receives a "campaign/profile" Progress event
	// per profiled cell, then per recorded cell a "campaign/record"
	// Progress event followed by one InjectionDone per classified
	// injection, in deterministic index order (byte-identical at any
	// Parallel).
	Events engine.EventSink
	// Completed maps cell keys (CellReport.Key, "workload/scheme@system")
	// to cell reports aggregated by a previous run. Cells found here are
	// skipped entirely — no profiling, no injections, no events — and the
	// stored report is spliced into the final Report in canonical order.
	// Every canonical-JSON field of a CellReport is a deterministic
	// function of (code, scale, seed), so a report assembled from
	// checkpoints is byte-identical to an uninterrupted run's.
	Completed map[string]CellReport
	// OnCell, when non-nil, is called once per freshly executed cell with
	// the cell's aggregated CellReport, in deterministic grid order, as
	// soon as the cell's last injection has been observed — the shard
	// checkpointing hook resumable services persist progress with. Cells
	// skipped via Completed are not re-announced. OnCell runs on the
	// sweep's ordered observation path; keep it fast.
	OnCell func(CellReport)
	// Sink, when non-nil, receives one row per injection: BeginCell once
	// per cell in deterministic grid order, then one Row per crash point
	// in point order. It is fed the identical sequence at any Parallel
	// setting, so a sink that serializes what it is handed (the
	// result-store writer) produces byte-identical output. Sink runs on
	// the sweep's ordered observation path; keep it fast. Run rejects a
	// Sink combined with Completed cells: restored aggregates carry no
	// per-injection rows, so the sink's output would silently omit them.
	Sink RowSink
	// Verbose enables progress notes on Out.
	Verbose bool
	Out     io.Writer
}

func (c Config) scale() float64 {
	if c.Scale <= 0 {
		return 1.0
	}
	return c.Scale
}

func (c Config) perCell() int {
	if c.PerCell > 0 {
		return c.PerCell
	}
	return max(8, int(120*c.scale()))
}

// registry returns the registry the campaign resolves names in.
func (c Config) registry() *engine.Registry {
	if c.Registry != nil {
		return c.Registry
	}
	return families.NewRegistry()
}

func (c Config) logf(format string, args ...any) {
	if c.Verbose && c.Out != nil {
		fmt.Fprintf(c.Out, format+"\n", args...)
	}
}

// campaignLLCBytes sizes the injection machines' LLC. 1 MB sits between
// the campaign's scaled working sets, so both cache-resident (lose-many
// -iterations) and streaming (lose-one-iteration) crash behaviours
// appear in the sweep.
const campaignLLCBytes = 1 << 20

// cell is one workload x scheme x platform x fault-model combination of
// the sweep grid. FaultName is the canonical model name, or "" for
// clean fail-stop so fail-stop cells keep their legacy keys.
type cell struct {
	Family    engine.Family
	Scheme    engine.Scheme
	System    crash.SystemKind
	Fault     crash.FaultModel
	FaultName string
}

func (c cell) String() string {
	s := fmt.Sprintf("%s/%s@%s", c.Family.Name, c.Scheme.Name(), c.System)
	if c.FaultName != "" {
		s += "+" + c.FaultName
	}
	return s
}

// seed derives the cell's crash-point seed from the campaign seed via
// FNV-1a over the workload/scheme/system coordinates, so cells are
// decorrelated but stable across runs and subset selections. The fault
// model is deliberately NOT mixed in: every fault model of one
// workload/scheme/system cell sweeps the same crash points, so outcome
// differences across models measure the model, not a different sample.
func (c cell) seed(base int64) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%d|%d", c.Family.Name, c.Scheme.Name(), c.System, base)
	return int64(h.Sum64() >> 1)
}

// fault returns the cell's seeded fault model: the parsed model with
// its fault-lottery seed derived from the full cell key (fault name
// included) and the campaign seed. Fail-stop needs no seed.
func (c cell) fault(base int64) crash.FaultModel {
	f := c.Fault
	if f.Kind == crash.FailStop {
		return f
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|fault|%d", c.String(), base)
	f.Seed = int64(h.Sum64() >> 1)
	return f
}

// systems is the sweep order of the paper's two platforms. Every cell
// runs on both, regardless of the scheme's paper pairing — the campaign
// is a grid, not the seven-case comparison.
var systems = []crash.SystemKind{crash.NVMOnly, crash.Hetero}

// faultAxis is one resolved entry of the fault-model sweep axis.
type faultAxis struct {
	name  string // canonical name; "" for fail-stop (legacy cell keys)
	model crash.FaultModel
}

// faultModels resolves Config.FaultModels into the swept axis,
// deduplicating by canonical name and preserving first-mention order.
// An empty config sweeps fail-stop only.
func (c Config) faultModels() ([]faultAxis, error) {
	if len(c.FaultModels) == 0 {
		return []faultAxis{{}}, nil
	}
	var out []faultAxis
	seen := map[crash.FaultKind]bool{}
	for _, name := range c.FaultModels {
		fm, err := crash.ParseFaultModel(name)
		if err != nil {
			return nil, fmt.Errorf("campaign: %w", err)
		}
		if seen[fm.Kind] {
			continue
		}
		seen[fm.Kind] = true
		ax := faultAxis{model: fm}
		if fm.Kind != crash.FailStop {
			ax.name = fm.Kind.String()
		}
		out = append(out, ax)
	}
	return out, nil
}

// CellKeys enumerates the config's sweep grid in deterministic order,
// returning each cell's CellReport.Key ("workload/scheme@system"). It
// validates workload and scheme names exactly like Run, so a service
// can size and reject a campaign before starting it.
func (c Config) CellKeys() ([]string, error) {
	cells, err := c.cells()
	if err != nil {
		return nil, err
	}
	keys := make([]string, len(cells))
	for i, cl := range cells {
		keys[i] = cl.String()
	}
	return keys, nil
}

// cells enumerates the sweep grid in deterministic order, honoring the
// config's workload/scheme filters.
func (c Config) cells() ([]cell, error) {
	reg := c.registry()
	for _, w := range c.Workloads {
		if _, ok := reg.Family(w); !ok {
			return nil, fmt.Errorf("campaign: unknown workload %q", w)
		}
	}
	faults, err := c.faultModels()
	if err != nil {
		return nil, err
	}
	var out []cell
	for _, fam := range reg.Families() {
		if len(c.Workloads) > 0 && !slices.Contains(c.Workloads, fam.Name) {
			continue
		}
		// The family's own grid (a family without scheme-selected
		// variants gets the default one), plus any explicitly named
		// scheme outside it (custom schemes from the config's registry),
		// in the order they were named.
		candidates := slices.Clone(fam.Schemes)
		if fam.Schemes == nil {
			candidates = slices.Clone(engine.DefaultCampaignSchemes)
		}
		for _, name := range c.Schemes {
			if !slices.Contains(candidates, name) {
				candidates = append(candidates, name)
			}
		}
		for _, name := range candidates {
			if len(c.Schemes) > 0 && !slices.Contains(c.Schemes, name) {
				continue
			}
			sc, ok := reg.Lookup(name)
			if !ok {
				return nil, fmt.Errorf("campaign: unknown scheme %q", name)
			}
			for _, sys := range systems {
				for _, fa := range faults {
					out = append(out, cell{
						Family: fam, Scheme: sc, System: sys,
						Fault: fa.model, FaultName: fa.name,
					})
				}
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("campaign: no cells match workloads=%v schemes=%v", c.Workloads, c.Schemes)
	}
	return out, nil
}

// newMachine builds one injection platform: per-cell system kind, the
// campaign LLC, defaults elsewhere. eADR cells run with flush-free
// pricing — the cost half of the platform; the crash-time drain is the
// fault model's overlay. FlushFree changes only the simulated clock,
// never the access stream, so crash-point spaces stay comparable
// across fault models.
func (c cell) newMachine() *crash.Machine {
	return crash.NewMachine(crash.MachineConfig{
		System: c.System,
		Cache: cache.Config{
			SizeBytes:         campaignLLCBytes,
			LineBytes:         64,
			Assoc:             16,
			HitNS:             4,
			FlushChargesClean: true,
			PrefetchStreams:   16,
			FlushFree:         c.Fault.Kind == crash.EADR,
		},
	})
}

// InjectionRow is the outcome of one crash point — the unit record the
// campaign aggregates into CellReports and streams to Config.Sink.
type InjectionRow struct {
	// Outcome classifies the injection's end state.
	Outcome Outcome
	// CrashOps is the memory-operation count the crash fired at.
	CrashOps int64
	// ReworkOps counts ops redone beyond the not-yet-executed remainder
	// (the recomputation the scheme forced).
	ReworkOps int64
	// FlushLines counts cache-line flushes issued during recovery and
	// resumption.
	FlushLines int64
	// RecoverSimNS and ResumeSimNS are the simulated time spent in
	// post-crash detection/restore and in re-execution.
	RecoverSimNS int64
	ResumeSimNS  int64
}

// CellInfo identifies one sweep cell for RowSink consumers: the grid
// coordinates plus the per-cell profile constants CellReport carries.
type CellInfo struct {
	Workload   string
	Scheme     string
	System     string
	FaultModel string // "" for clean fail-stop, like CellReport
	ProfileOps int64
	GrainOps   int64
	// Injections is the number of rows that will follow before the next
	// BeginCell (the cell's scheduled crash-point count).
	Injections int
}

// RowSink receives the campaign's per-injection rows in deterministic
// order; see Config.Sink.
type RowSink interface {
	BeginCell(CellInfo)
	Row(InjectionRow)
}

// plan is one cell with its family's shared inputs and enumerated crash
// points.
type plan struct {
	Cell    cell
	Shared  any
	Profile crash.RunProfile
	Points  []crash.CrashPoint
}

// prepared builds a fresh workload instance for one run of the cell
// (profile, recording, or fork) and binds it to m.
func (p plan) prepared(cfg Config, m *crash.Machine, em *crash.Emulator) (engine.Workload, error) {
	w, err := p.Cell.Family.New(p.Cell.Scheme, cfg.scale(), p.Shared)
	if err == nil {
		err = w.Prepare(m, em)
	}
	return w, err
}

// info renders the plan's coordinates and constants for RowSinks.
func (p plan) info() CellInfo {
	return CellInfo{
		Workload:   p.Cell.Family.Name,
		Scheme:     p.Cell.Scheme.Name(),
		System:     p.Cell.System.String(),
		FaultModel: p.Cell.FaultName,
		ProfileOps: p.Profile.Ops,
		GrainOps:   p.Profile.MainTriggerOps(),
		Injections: len(p.Points),
	}
}

// Run executes the campaign and returns its aggregated report.
// Cancelling ctx stops the dispatch of queued cells, stops running
// cells before their next recovery fork, and surfaces ctx.Err(); a
// cancelled campaign returns no report.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	return run(ctx, cfg, runCells)
}

// stage2 executes every planned injection and returns the rows in
// plan-major point order, feeding cfg.Sink, cfg.Events, and cfg.OnCell
// on the way. It is a parameter of run only so the tests' from-scratch
// oracle goes through the same planning and aggregation as the engine.
type stage2 func(ctx context.Context, cfg Config, plans []plan) ([]InjectionRow, error)

func run(ctx context.Context, cfg Config, execute stage2) (*Report, error) {
	grid, err := cfg.cells()
	if err != nil {
		return nil, err
	}
	// Cells checkpointed by a previous run are spliced into the final
	// report as-is; only the remainder executes.
	var cells []cell
	var restored []CellReport
	for _, cl := range grid {
		if cr, ok := cfg.Completed[cl.String()]; ok {
			restored = append(restored, cr)
			continue
		}
		cells = append(cells, cl)
	}
	if cfg.Sink != nil && len(restored) > 0 {
		return nil, fmt.Errorf("campaign: Sink cannot be combined with %d Completed cells: restored aggregates carry no per-injection rows", len(restored))
	}
	perCell := cfg.perCell()
	cfg.logf("campaign: %d cells x %d injections at scale %g",
		len(cells), perCell, cfg.scale())
	if len(restored) > 0 {
		cfg.logf("campaign: %d of %d cells restored from checkpoints", len(restored), len(grid))
	}

	// Each family's shared inputs (CG matrix, verification oracles)
	// depend only on the family and the scale, so they are computed once
	// here and read by every cell and fork.
	shared := map[string]any{}
	for _, cl := range cells {
		if _, ok := shared[cl.Family.Name]; !ok {
			shared[cl.Family.Name] = cl.Family.SharedAt(cfg.scale())
		}
	}

	// Stage 1: profile each cell once to learn its crash-point space,
	// then enumerate the cell's seeded points.
	var observeProfile func(i int, p plan, err error)
	if cfg.Events != nil {
		observeProfile = func(i int, _ plan, _ error) {
			cfg.Events.Emit(engine.Progress{Stage: "campaign/profile", Done: i + 1, Total: len(cells)})
		}
	}
	plans, err := engine.RunCasesObserved(ctx, cfg.Parallel, len(cells), func(i int) (plan, error) {
		cl := cells[i]
		p := plan{Cell: cl, Shared: shared[cl.Family.Name]}
		m := cl.newMachine()
		em := crash.NewEmulator(m)
		w, err := p.prepared(cfg, m, em)
		if err != nil {
			return plan{}, fmt.Errorf("campaign: %s: %w", cl, err)
		}
		prof := em.Profile(func() { w.Run(w.Start()) })
		if prof.Ops == 0 {
			return plan{}, fmt.Errorf("campaign: %s: profile saw no memory operations", cl)
		}
		if err := w.Verify(); err != nil {
			return plan{}, fmt.Errorf("campaign: %s: crash-free run failed verification: %w", cl, err)
		}
		cfg.logf("campaign: %s profile: %d ops, %d trigger names", cl, prof.Ops, len(prof.Triggers))
		p.Profile, p.Points = prof, prof.Points(perCell, cl.seed(cfg.Seed))
		return p, nil
	}, observeProfile)
	if err != nil {
		return nil, err
	}

	// Stage 2: execute the injections, one row per (cell, point) in
	// plan-major point order.
	results, err := execute(ctx, cfg, plans)
	if err != nil {
		return nil, err
	}

	// Stage 3: aggregate per cell and splice in checkpointed cells.
	rep := &Report{Schema: SchemaVersion, Scale: cfg.scale(), Seed: cfg.Seed}
	byPlan := make([]CellReport, 0, len(plans)+len(restored))
	off := 0
	for _, p := range plans {
		byPlan = append(byPlan, aggregateCell(p, results[off:off+len(p.Points)]))
		off += len(p.Points)
	}
	byPlan = append(byPlan, restored...)
	for i := range byPlan {
		rep.Injections += byPlan[i].Injections
	}
	rep.Cells = byPlan
	SortCells(rep.Cells)
	return rep, nil
}

// aggregateCell folds one cell's injections into its CellReport via
// the shared CellReport.Add/Finalize path. It is the single aggregation
// route — stage 3, the OnCell checkpoint hook, and (through the same
// Add/Finalize methods) the result-store query layer all use it — so a
// checkpointed or store-rebuilt cell report is identical to the one an
// uninterrupted run assembles.
func aggregateCell(p plan, inj []InjectionRow) CellReport {
	cr := CellReport{
		Workload:   p.Cell.Family.Name,
		Scheme:     p.Cell.Scheme.Name(),
		System:     p.Cell.System.String(),
		FaultModel: p.Cell.FaultName,
		ProfileOps: p.Profile.Ops,
		GrainOps:   p.Profile.MainTriggerOps(),
	}
	for _, r := range inj {
		cr.Add(r)
	}
	cr.Finalize()
	return cr
}

// runCells is the engine's stage 2: each cell executes once — a
// recording run capturing the post-crash state at every scheduled crash
// point — and recovery runs on forks restored from those captures.
// Captures deduplicate into post-crash equivalence classes (Crash
// erases all volatile state, so two points whose persistent images and
// auxiliary state match crash into identical machines), and one fork
// per class serves every member point. Cells fan through the bounded
// pool; within a cell the work is sequential, bounding resident
// snapshot memory to roughly the pool width times the per-cell class
// count.
func runCells(ctx context.Context, cfg Config, plans []plan) ([]InjectionRow, error) {
	// Global injection index of each plan's first point: InjectionDone
	// events number injections across the whole campaign.
	offset := make([]int, len(plans)+1)
	for pi, p := range plans {
		offset[pi+1] = offset[pi] + len(p.Points)
	}
	total := offset[len(plans)]
	var observe func(i int, inj []InjectionRow, err error)
	if cfg.Events != nil || cfg.OnCell != nil || cfg.Sink != nil {
		observe = func(i int, inj []InjectionRow, err error) {
			if err != nil {
				return // a cancelled cell has no rows to announce
			}
			if cfg.Sink != nil {
				cfg.Sink.BeginCell(plans[i].info())
				for _, r := range inj {
					cfg.Sink.Row(r)
				}
			}
			if cfg.Events != nil {
				cfg.Events.Emit(engine.Progress{Stage: "campaign/record", Done: i + 1, Total: len(plans)})
				for j, r := range inj {
					cfg.Events.Emit(engine.InjectionDone{
						Cell:    plans[i].Cell.String(),
						Index:   offset[i] + j,
						Total:   total,
						Outcome: r.Outcome.String(),
					})
				}
			}
			if cfg.OnCell != nil {
				cfg.OnCell(aggregateCell(plans[i], inj))
			}
		}
	}
	perCell, err := engine.RunCasesObserved(ctx, cfg.Parallel, len(plans), func(i int) ([]InjectionRow, error) {
		return runCell(ctx, cfg, plans[i])
	}, observe)
	if err != nil {
		return nil, err
	}
	results := make([]InjectionRow, 0, total)
	for _, inj := range perCell {
		results = append(results, inj...)
	}
	return results, nil
}

// snapClass is one post-crash equivalence class of a cell's crash
// points: the representative crash snapshot and the indices (into the
// cell's point list) it stands for.
type snapClass struct {
	state  *crash.CrashState
	points []int
}

// classResult is the point-independent part of a fork's outcome. All
// cost fields are simulated-clock deltas, so they are identical for
// every point of the class even though the members' absolute crash
// times differ.
type classResult struct {
	prepErr    bool
	recoverErr bool
	resumeErr  bool
	verifyFail bool
	flushes    int64
	recoverNS  int64
	resumeNS   int64
	resumeOps  int64
}

// runCell records one cell, forks recovery once per equivalence
// class, and returns the cell's injections in point order. A cancelled
// ctx is noticed between forks and returned as the error.
func runCell(ctx context.Context, cfg Config, p plan) ([]InjectionRow, error) {
	injections := make([]InjectionRow, len(p.Points))
	m := p.Cell.newMachine()
	em := crash.NewEmulator(m)
	w, err := p.prepared(cfg, m, em)
	if err != nil {
		for i := range injections {
			injections[i] = expandInjection(classResult{prepErr: true}, 0, p)
		}
		return injections, nil
	}

	// Recording run: pause at every scheduled point, capture the
	// post-crash state, and deduplicate into equivalence classes keyed
	// on (persistent images, auxiliary state, fault overlay) — the only
	// state a faulted crash preserves. Three tiers of sharing: a version
	// compare (StateVersion) proves in O(1) that nothing persistent
	// changed since the previous point, so runs of points between
	// writebacks share one class without even snapshotting — but ONLY
	// under fail-stop, because a fault overlay also depends on volatile
	// cache state and the point seed, which no version counter tracks;
	// when the version did move (or a fault model is active),
	// CrashSnapshotFault copies only the regions and aux components
	// whose own counters moved (copy-on-write against the previous
	// capture) and attaches the point's overlay; and a content-hash
	// prefilter — overlay mixed in — avoids most content comparisons when
	// merging against older classes.
	fm := p.Cell.fault(cfg.Seed)
	var classes []*snapClass
	byHash := map[uint64][]int{}
	captured := make([]bool, len(p.Points))
	crashOps := make([]int64, len(p.Points))
	lastClass, lastVer := -1, uint64(0)
	var prev *crash.CrashState
	em.Record(func() { w.Run(w.Start()) }, p.Points, func(pi int) {
		captured[pi] = true
		crashOps[pi] = em.OpCount()
		if fm.Kind == crash.FailStop {
			if ver := m.StateVersion(); lastClass >= 0 && ver == lastVer {
				classes[lastClass].points = append(classes[lastClass].points, pi)
				return
			} else {
				lastVer = ver
			}
		}
		// The overlay error is impossible for the built-in models the
		// campaign sweeps (no explicit permutation); an inapplicable
		// model would degrade to its fail-stop capture, exactly like
		// Emulator.Run's fallback.
		st, _ := m.CrashSnapshotFault(prev, fm, em.OpCount())
		prev = st
		for _, ci := range byHash[st.Hash()] {
			c := classes[ci]
			if c.state.Equal(st) {
				c.points = append(c.points, pi)
				lastClass = ci
				return
			}
		}
		classes = append(classes, &snapClass{state: st, points: []int{pi}})
		byHash[st.Hash()] = append(byHash[st.Hash()], len(classes)-1)
		lastClass = len(classes) - 1
	})

	// One fork per class on a single reused fork machine; expand each
	// result to every member point.
	f := newForker(cfg, p)
	for _, c := range classes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res := f.run(c.state)
		for _, pi := range c.points {
			injections[pi] = expandInjection(res, crashOps[pi], p)
		}
	}
	// Points the recording run never reached are crashes that never
	// fired.
	for pi, ok := range captured {
		if !ok {
			injections[pi] = InjectionRow{Outcome: OutcomeNoCrash}
		}
	}
	return injections, nil
}

// forker replays all of one cell's crash classes on a single reused
// machine. The cell's machine, emulator, and workload are constructed
// once — Prepare runs under a null accessor, since every fork's restore
// overwrites everything Prepare computes — and each class run then
// costs only a (memoized, copy-on-write) post-crash restore plus the
// recovery/resume/verify itself.
type forker struct {
	p       plan
	m       *crash.Machine
	em      *crash.Emulator
	w       engine.Workload
	prepErr bool
}

func newForker(cfg Config, p plan) *forker {
	f := &forker{p: p}
	f.m = p.Cell.newMachine()
	f.em = crash.NewEmulator(f.m)
	acc := f.m.Heap.Accessor()
	f.m.Heap.SetAccessor(mem.NullAccessor{})
	w, err := p.prepared(cfg, f.m, f.em)
	f.m.Heap.SetAccessor(acc)
	f.w, f.prepErr = w, err != nil
	return f
}

// run replays one equivalence class: restore the captured post-crash
// state, then recover, resume, and verify.
func (f *forker) run(st *crash.CrashState) classResult {
	if f.prepErr {
		return classResult{prepErr: true}
	}
	f.m.RestoreCrash(st)
	return recoverAndResume(f.m, f.em, f.w)
}

// recoverAndResume takes a machine that has just crashed (or been
// restored to a post-crash state) through the cell's scheme: post-crash
// detection/restore, resumption under the disarmed but still counting
// emulator, and verification. Panics in any of the three are contained
// and classified — a campaign survives pathological injections. All
// cost fields are simulated-clock deltas, so the machine's absolute
// clock position is irrelevant.
func recoverAndResume(m *crash.Machine, em *crash.Emulator, w engine.Workload) classResult {
	var res classResult
	flushes0 := m.LLC.Stats().Flushes

	recStart := m.Clock.Now()
	from, err := safeRecover(w)
	res.recoverNS = m.Clock.Since(recStart)
	if err != nil {
		res.recoverErr = true
		return res
	}

	resStart := m.Clock.Now()
	crashedAgain, err := safeResume(em, w, from)
	res.resumeNS = m.Clock.Since(resStart)
	res.flushes = m.LLC.Stats().Flushes - flushes0
	res.resumeOps = em.OpCount()
	if err != nil || crashedAgain {
		res.resumeErr = true
		return res
	}
	if err := safeVerify(w); err != nil {
		res.verifyFail = true
	}
	return res
}

// expandInjection is the campaign's one classification: it specializes
// a class result to one member point. The only point-dependent inputs
// are the crash op count and the rework derived from it.
func expandInjection(res classResult, crashOps int64, p plan) InjectionRow {
	var inj InjectionRow
	if res.prepErr {
		inj.Outcome = OutcomeUnrecoverable
		return inj
	}
	inj.CrashOps = crashOps
	inj.RecoverSimNS = res.recoverNS
	if res.recoverErr {
		inj.Outcome = OutcomeUnrecoverable
		return inj
	}
	inj.ResumeSimNS = res.resumeNS
	inj.FlushLines = res.flushes
	remaining := p.Profile.Ops - inj.CrashOps
	if rework := res.resumeOps - remaining; rework > 0 {
		inj.ReworkOps = rework
	}
	if res.resumeErr {
		inj.Outcome = OutcomeUnrecoverable
		return inj
	}
	if res.verifyFail {
		inj.Outcome = OutcomeCorrupt
		return inj
	}
	// Clean if the forced rework stayed within ~one main-loop iteration
	// (plus one iteration of slack for partially re-executed work).
	if inj.ReworkOps <= 2*p.Profile.MainTriggerOps() {
		inj.Outcome = OutcomeClean
	} else {
		inj.Outcome = OutcomeRecomputed
	}
	return inj
}

// safeRecover calls w.Recover, converting panics into errors.
func safeRecover(w engine.Workload) (from int64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("recovery panic: %v", r)
		}
	}()
	return w.Recover()
}

// safeResume completes the computation from the recovery token inside
// the emulator (for op counting), converting panics into errors.
func safeResume(em *crash.Emulator, w engine.Workload, from int64) (crashed bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("resume panic: %v", r)
		}
	}()
	return em.Run(func() { w.Run(from) }), nil
}

// safeVerify calls w.Verify, converting panics into errors.
func safeVerify(w engine.Workload) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("verify panic: %v", r)
		}
	}()
	return w.Verify()
}
