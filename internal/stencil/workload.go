package stencil

import (
	"fmt"

	"adcc/internal/crash"
	"adcc/internal/engine"
	"adcc/internal/sim"
)

// WorkloadName is the registry and report name of the stencil family.
const WorkloadName = "stencil"

// HeatWorkload adapts the extended (algorithm-directed) relaxation to
// the engine.Workload lifecycle, so the harness, the crash-injection
// campaign, and the public Runner drive it like the paper's three
// studies.
type HeatWorkload struct {
	Opts Options
	// Want, when non-nil, is the precomputed oracle plane (a pure
	// function of Opts, so campaigns compute it once per cell and share
	// it read-only).
	Want []float64
	// Scheme selects the algorithm-directed flush variant via its
	// FlushPolicy; nil means the selective-flush design.
	Scheme engine.Scheme

	h   *Heat
	rec Recovery
}

// Name implements engine.Workload.
func (w *HeatWorkload) Name() string { return WorkloadName }

// Prepare implements engine.Workload.
func (w *HeatWorkload) Prepare(m *crash.Machine, em *crash.Emulator) error {
	if w.h != nil {
		return fmt.Errorf("stencil: Prepare called twice")
	}
	w.h = NewHeat(m, em, w.Opts)
	if w.Scheme != nil {
		w.h.Policy = w.Scheme.FlushPolicy()
	}
	return nil
}

// Start implements engine.Workload: sweeps are 1-based.
func (w *HeatWorkload) Start() int64 { return 1 }

// Run implements engine.Workload.
func (w *HeatWorkload) Run(from int64) { w.h.Run(int(from)) }

// Recover implements engine.Workload.
func (w *HeatWorkload) Recover() (int64, error) {
	w.rec = w.h.Recover()
	if w.rec.RestartIter < 1 || w.rec.RestartIter > w.h.Opts.MaxIter+1 {
		return 0, fmt.Errorf("stencil: restart sweep %d out of range", w.rec.RestartIter)
	}
	return int64(w.rec.RestartIter), nil
}

// Verify implements engine.Workload: the live final plane must equal
// the native oracle.
func (w *HeatWorkload) Verify() error {
	want := w.Want
	if want == nil {
		want = Want(w.h.Opts)
	}
	return VerifyGrid(w.h.Result(), want)
}

// Boundary implements engine.Boundary: the sweep just closed. The flush
// policy is fixed at Prepare; everything else lives in the heap.
func (w *HeatWorkload) Boundary(dst []uint64) ([]uint64, bool) {
	return append(dst, uint64(w.h.iter)), true
}

// Metrics implements engine.Workload.
func (w *HeatWorkload) Metrics() map[string]float64 {
	return map[string]float64{
		"residual":        w.h.Residual(),
		"avg_iter_ns":     float64(sim.AvgPositive(w.h.IterNS[1:])),
		"iterations_lost": float64(w.rec.IterationsLost),
		"detect_ns":       float64(w.rec.DetectNS),
	}
}

// BaselineWorkload adapts the ping-pong relaxation under a conventional
// scheme to the engine.Workload lifecycle.
type BaselineWorkload struct {
	Opts Options
	// Want, when non-nil, is the precomputed oracle plane (see
	// HeatWorkload.Want).
	Want []float64
	// Scheme selects the conventional mechanism; nil means native.
	Scheme engine.Scheme

	bg *Baseline
}

// Name implements engine.Workload.
func (w *BaselineWorkload) Name() string { return WorkloadName }

// Prepare implements engine.Workload.
func (w *BaselineWorkload) Prepare(m *crash.Machine, em *crash.Emulator) error {
	if w.bg != nil {
		return fmt.Errorf("stencil: Prepare called twice")
	}
	w.bg = NewBaseline(m, w.Opts, w.Scheme)
	w.bg.Em = em
	return nil
}

// Start implements engine.Workload: sweeps are 1-based.
func (w *BaselineWorkload) Start() int64 { return 1 }

// Run implements engine.Workload.
func (w *BaselineWorkload) Run(from int64) { w.bg.RunFrom(int(from)) }

// Recover implements engine.Workload.
func (w *BaselineWorkload) Recover() (int64, error) {
	from, err := w.bg.Recover()
	return int64(from), err
}

// Verify implements engine.Workload: same oracle comparison as the
// extended relaxation.
func (w *BaselineWorkload) Verify() error {
	want := w.Want
	if want == nil {
		want = Want(w.bg.Opts)
	}
	return VerifyGrid(w.bg.Result(), want)
}

// Boundary implements engine.Boundary: the sweep just closed and the
// guard's state.
func (w *BaselineWorkload) Boundary(dst []uint64) ([]uint64, bool) {
	return engine.GuardBoundary(w.bg.Guard, append(dst, uint64(w.bg.iter)))
}

// Metrics implements engine.Workload.
func (w *BaselineWorkload) Metrics() map[string]float64 {
	return map[string]float64{
		"avg_iter_ns": float64(sim.AvgPositive(w.bg.IterNS[1:])),
	}
}

// NewWorkload builds the family's implementation for sc: the extended
// plane-history relaxation under algorithm-directed schemes, the
// ping-pong baseline under the scheme's guard otherwise. want may be nil
// (see HeatWorkload.Want).
func NewWorkload(opts Options, sc engine.Scheme, want []float64) engine.Workload {
	if sc.Kind() == engine.KindAlgo {
		return &HeatWorkload{Opts: opts, Want: want, Scheme: sc}
	}
	return &BaselineWorkload{Opts: opts, Want: want, Scheme: sc}
}
