package stencil

import (
	"fmt"

	"adcc/internal/crash"
	"adcc/internal/engine"
	"adcc/internal/mem"
)

// Baseline is the conventional ping-pong Jacobi relaxation: two planes
// overwritten alternately (iteration i reads plane (i-1)%2 and writes
// plane i%2), paired with a conventional mechanism supplied as an
// engine.Scheme — per-iteration checkpoints, PMEM-style undo-log
// transactions, or nothing (native).
type Baseline struct {
	M    *crash.Machine
	Opts Options

	N      int
	U0, U1 *mem.F64
	// IterDone persistently records the last committed iteration for
	// transactional schemes (updated inside each iteration's
	// transaction, so a rollback rewinds it with the data).
	IterDone *mem.I64

	Scheme engine.Scheme
	Guard  engine.Guard
	IterNS []int64
	// Em, when set, fires TriggerIterEnd at the end of every sweep,
	// making the baseline injectable at the same named program points
	// as the extended relaxation.
	Em *crash.Emulator

	iter int // the sweep the last iteration-end trigger closed
}

// NewBaseline builds the ping-pong relaxation under the given scheme's
// mechanism (nil means native). Checkpoint schemes save both planes at
// the end of every sweep; PMEM schemes wrap each sweep's plane write in
// an undo-log transaction.
func NewBaseline(m *crash.Machine, opts Options, sc engine.Scheme) *Baseline {
	opts.setDefaults()
	if sc == nil {
		sc = engine.MustLookup(engine.SchemeNative)
	}
	n := opts.N
	nn := n * n
	bg := &Baseline{
		M: m, Opts: opts, N: n, Scheme: sc,
		U0:       m.Heap.AllocF64("heat.u0", nn),
		U1:       m.Heap.AllocF64("heat.u1", nn),
		IterDone: m.Heap.AllocI64("heat.iterdone", 1),
		IterNS:   make([]int64, opts.MaxIter+1),
	}
	// Log capacity for transactional schemes: one sweep rewrites one
	// plane (snapshots are line-deduplicated), so nn elements plus
	// slack suffice.
	bg.Guard = sc.NewGuard(m, nn+1024)
	bg.Guard.Register(bg.U0, bg.U1, bg.IterDone)
	g := InitialGrid(n, opts.Seed)
	copy(bg.U0.Live(), g)
	copy(bg.U0.Image(), g)
	return bg
}

// planeReg returns the region holding plane i of the ping-pong pair.
func (bg *Baseline) planeReg(i int) *mem.F64 {
	if i%2 == 0 {
		return bg.U0
	}
	return bg.U1
}

// Run executes the baseline loop for MaxIter sweeps.
func (bg *Baseline) Run() { bg.RunFrom(1) }

// RunFrom executes sweeps from..MaxIter (1-based, inclusive). A fresh
// run starts at 1; after a crash, resume from the sweep Recover
// returns.
func (bg *Baseline) RunFrom(from int) {
	m := bg.M
	if from < 1 {
		from = 1
	}
	for i := from; i <= bg.Opts.MaxIter; i++ {
		start := m.Clock.Now()
		if bg.Guard.Pool() != nil {
			bg.iterPMEM(i)
		} else {
			sweepSim(m.CPU, bg.planeReg(i-1), 0, bg.planeReg(i), 0, bg.N)
		}
		// End-of-iteration protection of both planes — for checkpoint
		// schemes this is the frequency that matches the
		// algorithm-directed approach's one-iteration recomputation
		// bound.
		bg.Guard.EndIteration(int64(i), bg.U0, bg.U1)
		bg.IterNS[i] = m.Clock.Since(start)
		bg.iter = i
		if bg.Em != nil {
			bg.Em.Trigger(TriggerIterEnd)
		}
	}
}

// iterPMEM performs sweep i with the destination plane rewritten inside
// an undo-log transaction. The persistent iteration index commits with
// the data, so a crash rolls both back together.
func (bg *Baseline) iterPMEM(i int) {
	n := bg.N
	src, dst := bg.planeReg(i-1), bg.planeReg(i)
	tx := bg.Guard.Pool().Begin()
	tx.SetI64(bg.IterDone, 0, int64(i))
	top := src.LoadRange(0, n)
	copy(tx.StoreRangeF64(dst, 0, n), top)
	bot := src.LoadRange((n-1)*n, n)
	copy(tx.StoreRangeF64(dst, (n-1)*n, n), bot)
	for r := 1; r < n-1; r++ {
		up := src.LoadRange((r-1)*n, n)
		mid := src.LoadRange(r*n, n)
		down := src.LoadRange((r+1)*n, n)
		out := tx.StoreRangeF64(dst, r*n, n)
		out[0] = mid[0]
		out[n-1] = mid[n-1]
		for c := 1; c < n-1; c++ {
			out[c] = 0.25 * (up[c] + down[c] + mid[c-1] + mid[c+1])
		}
		bg.M.CPU.Compute(int64(6 * (n - 2)))
	}
	tx.Commit()
}

// Recover restarts the baseline after a crash, per scheme: checkpoint
// schemes restore the last checkpoint and resume after it;
// transactional schemes roll back the torn transaction and resume after
// the last committed sweep; native runs reinitialize and start over. It
// returns the sweep RunFrom should resume at.
func (bg *Baseline) Recover() (from int, err error) {
	switch {
	case bg.Guard.Checkpointer() != nil:
		cp := bg.Guard.Checkpointer()
		if !cp.Valid() {
			bg.reset()
			return 1, nil
		}
		tag := cp.Restore(bg.U0, bg.U1)
		if tag < 1 || tag > int64(bg.Opts.MaxIter) {
			return 0, fmt.Errorf("stencil: checkpoint tag %d out of range", tag)
		}
		return int(tag) + 1, nil
	case bg.Guard.Pool() != nil:
		bg.Guard.Pool().Recover()
		done := bg.IterDone.Image()[0]
		if done < 0 || done > int64(bg.Opts.MaxIter) {
			return 0, fmt.Errorf("stencil: committed sweep %d out of range", done)
		}
		return int(done) + 1, nil
	default:
		bg.reset()
		return 1, nil
	}
}

// reset reinitializes the planes to the starting state (U0 = initial
// grid, U1 = 0) in both live and image, charging the NVM writes — the
// "restart the application from the beginning" path of a native run.
func (bg *Baseline) reset() {
	g := InitialGrid(bg.N, bg.Opts.Seed)
	copy(bg.U0.Live(), g)
	copy(bg.U0.Image(), g)
	for i := range bg.U1.Live() {
		bg.U1.Live()[i] = 0
	}
	for i := range bg.U1.Image() {
		bg.U1.Image()[i] = 0
	}
	bg.M.ChargeNVMWrite(bg.U0.Bytes() + bg.U1.Bytes())
}

// Result returns the live final plane.
func (bg *Baseline) Result() []float64 {
	return bg.planeReg(bg.Opts.MaxIter).Live()
}

func (bg *Baseline) String() string {
	return fmt.Sprintf("stencil.Baseline{n=%d scheme=%s}", bg.N, bg.Scheme.Name())
}
