package core

import (
	"cmp"
	"fmt"
	"math"

	"adcc/internal/crash"
	"adcc/internal/dense"
	"adcc/internal/engine"
	"adcc/internal/mc"
	"adcc/internal/sim"
	"adcc/internal/sparse"
)

// This file adapts the three algorithm-directed workloads to the
// engine.Workload interface, so generic infrastructure (conformance
// tests, batch executors, future workloads) can drive them uniformly:
// prepare, run, crash, recover, verify, report metrics.

// CGWorkload wraps the extended conjugate-gradient solver (§III-B).
type CGWorkload struct {
	// A is the system matrix; if nil, Prepare generates an SPD matrix
	// of dimension N with NnzRow nonzeros per row from Seed.
	A      *sparse.CSR
	N      int
	NnzRow int
	Opts   CGOptions

	cg  *CG
	rec CGRecovery
}

// Name implements engine.Workload.
func (w *CGWorkload) Name() string { return "cg" }

// Prepare implements engine.Workload.
func (w *CGWorkload) Prepare(m *crash.Machine, em *crash.Emulator) error {
	if w.cg != nil {
		return fmt.Errorf("cg: Prepare called twice")
	}
	if w.A == nil {
		w.A = sparse.GenSPD(cmp.Or(w.N, 2000), cmp.Or(w.NnzRow, 9), w.Opts.Seed)
	}
	w.cg = NewCG(m, em, w.A, w.Opts)
	return nil
}

// Start implements engine.Workload: CG iterations are 1-based.
func (w *CGWorkload) Start() int64 { return 1 }

// Run implements engine.Workload.
func (w *CGWorkload) Run(from int64) { w.cg.Run(int(from)) }

// Recover implements engine.Workload.
func (w *CGWorkload) Recover() (int64, error) {
	w.rec = w.cg.Recover()
	if w.rec.RestartIter < 1 || w.rec.RestartIter > w.cg.Opts.MaxIter+1 {
		return 0, fmt.Errorf("cg: restart iteration %d out of range", w.rec.RestartIter)
	}
	return int64(w.rec.RestartIter), nil
}

// Verify implements engine.Workload: the accumulated solution must solve
// the system to the tolerance the iteration count supports. The residual
// of a healthy run decreases monotonically from 1 (z=0); a corrupted
// recovery leaves it large.
func (w *CGWorkload) Verify() error { return cgVerify(w.cg.Residual(), w.cg.Opts.MaxIter) }

func cgVerify(residual float64, iters int) error {
	if math.IsNaN(residual) || residual >= 1 {
		return fmt.Errorf("cg: relative residual %v after %d iterations", residual, iters)
	}
	return nil
}

// Metrics implements engine.Workload.
func (w *CGWorkload) Metrics() map[string]float64 {
	return map[string]float64{
		"residual":        w.cg.Residual(),
		"avg_iter_ns":     float64(AvgIterNS(w.cg.IterNS)),
		"iterations_lost": float64(w.rec.IterationsLost),
		"detect_ns":       float64(w.rec.DetectNS),
	}
}

// MMWorkload wraps the extended ABFT matrix multiplication (§III-C).
type MMWorkload struct {
	Opts MMOptions
	// Want, when non-nil, is the precomputed native product used as the
	// verification oracle (it is a pure function of Opts, so injection
	// campaigns compute it once per cell and share it read-only).
	Want *dense.Matrix

	mm   *MM
	rec1 *MMRecovery // pending loop-1 repair plan from Recover
	rec  MMRecovery  // last recovery, for metrics
}

// MMWant computes the native product oracle for the given options.
func MMWant(opts MMOptions) *dense.Matrix {
	opts.setDefaults()
	a := dense.Random(opts.N, opts.N, opts.Seed)
	b := dense.Random(opts.N, opts.N, opts.Seed+1)
	want := dense.New(opts.N, opts.N)
	dense.Mul(want, a, b)
	return want
}

// mmVerify compares got to the oracle (precomputed want, or computed on
// the fly from opts when want is nil).
func mmVerify(got *dense.Matrix, want *dense.Matrix, opts MMOptions) error {
	if want == nil {
		want = MMWant(opts)
	}
	for i := range want.Data {
		d := math.Abs(got.Data[i] - want.Data[i])
		if d > 1e-8*math.Max(1, math.Abs(want.Data[i])) {
			return fmt.Errorf("mm: product differs at %d: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
	return nil
}

// Name implements engine.Workload.
func (w *MMWorkload) Name() string { return "mm" }

// Prepare implements engine.Workload.
func (w *MMWorkload) Prepare(m *crash.Machine, em *crash.Emulator) error {
	if w.mm != nil {
		return fmt.Errorf("mm: Prepare called twice")
	}
	if err := w.Opts.normalize(); err != nil {
		return err
	}
	w.mm = NewMM(m, em, w.Opts)
	return nil
}

// Start implements engine.Workload.
func (w *MMWorkload) Start() int64 { return 0 }

// Run implements engine.Workload. A fresh run executes both loops; after
// Recover it completes the repair plan — recomputing damaged or missing
// panels, then repairing and completing loop 2.
func (w *MMWorkload) Run(int64) {
	if w.rec1 == nil {
		w.mm.Run()
		return
	}
	w.mm.ResumeLoop1(*w.rec1)
	w.rec1 = nil
	rec2 := w.mm.RecoverLoop2()
	w.mm.ResumeLoop2(rec2)
}

// Recover implements engine.Workload: it scans loop 1's persistent image
// (correcting single stale elements via checksums) and stages the repair
// plan the next Run completes.
func (w *MMWorkload) Recover() (int64, error) {
	rec := w.mm.RecoverLoop1()
	w.rec1 = &rec
	w.rec = rec
	return 0, nil
}

// Verify implements engine.Workload: the live result must equal the
// native product.
func (w *MMWorkload) Verify() error {
	return mmVerify(w.mm.Result(), w.Want, w.mm.Opts)
}

// Metrics implements engine.Workload.
func (w *MMWorkload) Metrics() map[string]float64 {
	recompute := 0
	for _, s := range w.rec.Status {
		if s == BlockZero || s == BlockRecompute {
			recompute++
		}
	}
	return map[string]float64{
		"panels":       float64(w.mm.NumPanels()),
		"avg_panel_ns": float64(AvgPositiveNS(w.mm.PanelNS)),
		"recompute":    float64(recompute),
		"detect_ns":    float64(w.rec.DetectNS),
	}
}

// AvgPositiveNS returns the mean of the positive entries of v, or 0
// when there are none — sim.AvgPositive under the name the workload
// metrics and AvgIterNS have always used.
func AvgPositiveNS(v []int64) int64 { return sim.AvgPositive(v) }

// MCWorkload wraps the Monte-Carlo cross-section lookup loop (§III-D)
// under a restartable scheme (algorithm-directed selective flushing by
// default).
type MCWorkload struct {
	Cfg mc.Config
	// Scheme selects the consistency scheme; nil means the paper's
	// selective-flush algorithm-directed scheme.
	Scheme engine.Scheme
	// FlushPeriod overrides the default 0.01%-of-lookups period when
	// positive.
	FlushPeriod int

	sim *mc.Sim
	r   *MCRunner
}

// Name implements engine.Workload.
func (w *MCWorkload) Name() string { return "mc" }

// Prepare implements engine.Workload.
func (w *MCWorkload) Prepare(m *crash.Machine, em *crash.Emulator) error {
	if w.r != nil {
		return fmt.Errorf("mc: Prepare called twice")
	}
	if w.Cfg.Lookups == 0 {
		w.Cfg = mc.TinyConfig()
	}
	if w.Scheme == nil {
		w.Scheme = engine.MustLookup(engine.SchemeAlgoNVM)
	}
	w.sim = mc.New(m.Heap, m.CPU, w.Cfg)
	w.r = NewMCRunner(m, em, w.sim, w.Scheme)
	if w.FlushPeriod > 0 {
		w.r.FlushPeriod = w.FlushPeriod
	}
	return nil
}

// Start implements engine.Workload.
func (w *MCWorkload) Start() int64 { return 0 }

// Run implements engine.Workload.
func (w *MCWorkload) Run(from int64) {
	// Crash triggers fire only on the first (crashing) pass; a resumed
	// run must complete.
	if from > 0 {
		w.r.Em = nil
	}
	w.r.Run(from)
}

// Recover implements engine.Workload.
func (w *MCWorkload) Recover() (int64, error) {
	from := w.r.RestartIter()
	if from < 0 || from > int64(w.Cfg.Lookups) {
		return 0, fmt.Errorf("mc: restart lookup %d out of range", from)
	}
	return from, nil
}

// Verify implements engine.Workload: every lookup must be accounted for.
// A restarted run may redo up to one flush period of lookups, so the
// recorded total is bounded below by the lookup count and above by the
// count plus one period.
func (w *MCWorkload) Verify() error {
	var total int64
	for k, c := range w.sim.Counts() {
		if c < 0 {
			return fmt.Errorf("mc: negative count for type %d", k)
		}
		total += c
	}
	lookups := int64(w.Cfg.Lookups)
	// Each interaction type can lose or redo up to ~one flush period of
	// lookups around the restart point (see the restart semantics in
	// mcrun.go and the bound asserted by the integration tests).
	slack := int64(mc.NumTypes) * (2*int64(w.r.FlushPeriod) + 1)
	if total < lookups-slack || total > lookups+slack {
		return fmt.Errorf("mc: recorded %d lookups, want %d±%d", total, lookups, slack)
	}
	return nil
}

// Metrics implements engine.Workload.
func (w *MCWorkload) Metrics() map[string]float64 {
	out := map[string]float64{}
	for k, p := range mc.Percentages(w.sim.Counts(), w.Cfg.Lookups) {
		out[fmt.Sprintf("type%d_pct", k+1)] = p
	}
	return out
}

// BaselineCGWorkload wraps the Figure 1 baseline solver under a
// conventional scheme (native, checkpoint, or PMEM transactions) as an
// engine.Workload, so injection campaigns can crash and recover the
// baseline mechanisms through the same lifecycle as the
// algorithm-directed solver.
type BaselineCGWorkload struct {
	// A is the system matrix; if nil, Prepare generates an SPD matrix
	// of dimension N with NnzRow nonzeros per row from Opts.Seed.
	A      *sparse.CSR
	N      int
	NnzRow int
	Opts   CGOptions
	// Scheme selects the conventional mechanism; nil means native.
	Scheme engine.Scheme

	bg *BaselineCG
}

// Name implements engine.Workload.
func (w *BaselineCGWorkload) Name() string { return "cg" }

// Prepare implements engine.Workload.
func (w *BaselineCGWorkload) Prepare(m *crash.Machine, em *crash.Emulator) error {
	if w.bg != nil {
		return fmt.Errorf("cg: Prepare called twice")
	}
	if w.A == nil {
		w.A = sparse.GenSPD(cmp.Or(w.N, 2000), cmp.Or(w.NnzRow, 9), w.Opts.Seed)
	}
	w.bg = NewBaselineCG(m, w.A, w.Opts, w.Scheme)
	w.bg.Em = em
	return nil
}

// Start implements engine.Workload: CG iterations are 1-based.
func (w *BaselineCGWorkload) Start() int64 { return 1 }

// Run implements engine.Workload.
func (w *BaselineCGWorkload) Run(from int64) { w.bg.RunFrom(int(from)) }

// Recover implements engine.Workload.
func (w *BaselineCGWorkload) Recover() (int64, error) {
	from, err := w.bg.Recover()
	return int64(from), err
}

// Verify implements engine.Workload: same residual bound as the
// extended solver.
func (w *BaselineCGWorkload) Verify() error { return cgVerify(w.bg.Residual(), w.bg.Opts.MaxIter) }

// Metrics implements engine.Workload.
func (w *BaselineCGWorkload) Metrics() map[string]float64 {
	return map[string]float64{
		"residual":    w.bg.Residual(),
		"avg_iter_ns": float64(AvgIterNS(w.bg.IterNS)),
	}
}

// BaselineMMWorkload wraps the Figure 5 baseline ABFT multiplication
// under a conventional scheme as an engine.Workload.
type BaselineMMWorkload struct {
	Opts MMOptions
	// Want, when non-nil, is the precomputed native product oracle (see
	// MMWorkload.Want).
	Want *dense.Matrix
	// Scheme selects the conventional mechanism; nil means native.
	Scheme engine.Scheme

	bm *BaselineMM
}

// Name implements engine.Workload.
func (w *BaselineMMWorkload) Name() string { return "mm" }

// Prepare implements engine.Workload.
func (w *BaselineMMWorkload) Prepare(m *crash.Machine, em *crash.Emulator) error {
	if w.bm != nil {
		return fmt.Errorf("mm: Prepare called twice")
	}
	if err := w.Opts.normalize(); err != nil {
		return err
	}
	w.bm = NewBaselineMM(m, w.Opts, w.Scheme)
	w.bm.Em = em
	return nil
}

// Start implements engine.Workload: panels are 0-based.
func (w *BaselineMMWorkload) Start() int64 { return 0 }

// Run implements engine.Workload.
func (w *BaselineMMWorkload) Run(from int64) { w.bm.RunFrom(int(from)) }

// Recover implements engine.Workload.
func (w *BaselineMMWorkload) Recover() (int64, error) {
	from, err := w.bm.Recover()
	return int64(from), err
}

// Verify implements engine.Workload: the live result must equal the
// native product.
func (w *BaselineMMWorkload) Verify() error {
	return mmVerify(w.bm.Result(), w.Want, w.bm.Opts)
}

// Metrics implements engine.Workload.
func (w *BaselineMMWorkload) Metrics() map[string]float64 {
	return map[string]float64{
		"panels":       float64(len(w.bm.PanelNS)),
		"avg_panel_ns": float64(AvgPositiveNS(w.bm.PanelNS)),
	}
}

// NewCGWorkload builds CG's implementation for sc: the extended solver
// under algorithm-directed schemes, the Figure 1 baseline under the
// scheme's guard otherwise.
func NewCGWorkload(a *sparse.CSR, opts CGOptions, sc engine.Scheme) engine.Workload {
	if sc.Kind() == engine.KindAlgo {
		return &CGWorkload{A: a, Opts: opts}
	}
	return &BaselineCGWorkload{A: a, Opts: opts, Scheme: sc}
}

// NewMMWorkload builds the multiplication's implementation for sc: the
// extended two-loop ABFT under algorithm-directed schemes, the Figure 5
// baseline under the scheme's guard otherwise. want may be nil (see
// MMWorkload.Want).
func NewMMWorkload(opts MMOptions, sc engine.Scheme, want *dense.Matrix) engine.Workload {
	if sc.Kind() == engine.KindAlgo {
		return &MMWorkload{Opts: opts, Want: want}
	}
	return &BaselineMMWorkload{Opts: opts, Want: want, Scheme: sc}
}

// Workloads returns one instance of each paper workload with CI-scale
// defaults, for generic drivers and conformance tests.
func Workloads() []engine.Workload {
	return []engine.Workload{
		&CGWorkload{N: 2000, NnzRow: 9, Opts: CGOptions{MaxIter: 10, Seed: 3}},
		&MMWorkload{Opts: MMOptions{N: 96, K: 24, Seed: 4}},
		&MCWorkload{Cfg: mc.TinyConfig()},
	}
}

// Interface conformance.
var (
	_ engine.Workload = (*CGWorkload)(nil)
	_ engine.Workload = (*MMWorkload)(nil)
	_ engine.Workload = (*MCWorkload)(nil)
	_ engine.Workload = (*BaselineCGWorkload)(nil)
	_ engine.Workload = (*BaselineMMWorkload)(nil)
)
