// Package core implements the paper's contribution: algorithm-directed
// crash consistence in NVM for three HPC algorithms — the conjugate
// gradient iterative solver (§III-B), ABFT dense matrix multiplication
// (§III-C), and Monte-Carlo cross-section lookup (§III-D) — together
// with the baseline mechanisms (checkpoint variants and PMEM-style
// transactions) the paper compares against.
package core

import (
	"fmt"
	"math"

	"adcc/internal/crash"
	"adcc/internal/engine"
	"adcc/internal/mem"
	"adcc/internal/sparse"
)

// TriggerCGIterEnd is the named crash point at the end of a CG iteration
// (right after the p update, Line 10 of the paper's Figure 2).
const TriggerCGIterEnd = "cg.iter-end"

// CGOptions configures the extended CG solver.
type CGOptions struct {
	// MaxIter is the number of main-loop iterations (the paper crashes
	// at iteration 15).
	MaxIter int
	// InvTol is the relative tolerance for the recovery invariants.
	// Zero means 1e-8.
	InvTol float64
	// Seed drives right-hand-side construction.
	Seed int64
	// CheckResidual enables the per-iteration "Check r = b - A*z" of
	// the paper's Figure 1/2 (line 11/12) — the online-ABFT soft-error
	// detection step. It costs one extra SpMV per iteration and is off
	// by default, as the runtime comparisons exclude it on all sides.
	CheckResidual bool
}

func (o *CGOptions) setDefaults() {
	if o.InvTol == 0 {
		o.InvTol = 1e-8
	}
	if o.MaxIter == 0 {
		o.MaxIter = 15
	}
}

// CG is the paper's extended conjugate-gradient solver (Figure 2): the
// four work vectors carry an iteration dimension (history rows) so that
// hardware cache eviction opportunistically persists old iterations, and
// only the single cache line holding the iteration number is flushed
// each iteration. Recovery reasons about the persistent image using two
// algorithm invariants:
//
//	p(j+1)' * q(j)        = 0                    (conjugacy, Eq. 1)
//	r(j+1)                = b - A*z(j+1)         (residual, Eq. 2)
//
// plus the standard CG identity p(j+1)'*r(j+1) = r(j+1)'*r(j+1), which
// closes the one blind spot of the first two (an all-stale p row is
// orthogonal to everything and invisible to Eq. 2, which does not
// involve p).
type CG struct {
	M    *crash.Machine
	Em   *crash.Emulator
	A    *sparse.SimCSR
	An   *sparse.CSR // native copy for recovery-side SpMV on images
	B    *mem.F64
	Opts CGOptions

	N int
	// History arrays: rows 0..MaxIter+1, each of N elements. Row i
	// holds the iteration-i value; iteration i writes row i+1.
	P, Q, R, Z *mem.F64
	// IterNum is the flushed iteration counter (one line).
	IterNum *mem.I64

	// IterNS records the simulated duration of each completed
	// iteration (1-based index; entry 0 unused).
	IterNS []int64

	// ResidualAlarms counts iterations whose Figure 2 line 12 check
	// failed (only with Opts.CheckResidual).
	ResidualAlarms int

	rho     float64
	iter    int      // the iteration the last iteration-end trigger closed
	checkAz *mem.F64 // scratch for the residual check
}

// NewCG builds the extended solver for the system A x = b where
// b = A * ones, so the exact solution is known. The initial state (A, b,
// and the row-1 vectors) is made persistent, as the paper assumes for
// the input of the computation.
func NewCG(m *crash.Machine, em *crash.Emulator, a *sparse.CSR, opts CGOptions) *CG {
	opts.setDefaults()
	n := a.N
	rows := opts.MaxIter + 2
	cg := &CG{
		M: m, Em: em, An: a, Opts: opts, N: n,
		A:       sparse.NewSimCSR(m.Heap, a, "cg.A"),
		B:       m.Heap.AllocF64("cg.b", n),
		P:       m.Heap.AllocF64("cg.p", rows*n),
		Q:       m.Heap.AllocF64("cg.q", rows*n),
		R:       m.Heap.AllocF64("cg.r", rows*n),
		Z:       m.Heap.AllocF64("cg.z", rows*n),
		IterNum: m.Heap.AllocI64("cg.iter", 1),
		IterNS:  make([]int64, opts.MaxIter+1),
	}
	// b = A * ones.
	ones := make([]float64, n)
	for i := range ones {
		ones[i] = 1
	}
	b := make([]float64, n)
	sparse.SpMV(b, a, ones)
	copy(cg.B.Live(), b)
	copy(cg.B.Image(), b)

	// Initial iteration-1 rows: x0 = 0, r1 = b - A x0 = b, p1 = r1,
	// z1 = x0. Persisted as part of the initial consistent state.
	copy(cg.P.Live()[n:2*n], b)
	copy(cg.P.Image()[n:2*n], b)
	copy(cg.R.Live()[n:2*n], b)
	copy(cg.R.Image()[n:2*n], b)
	// Z row 1 and Q rows stay zero (already consistent).

	// The large read-only matrix is DRAM-tiered on the heterogeneous
	// system (paper's data placement); the history arrays stay
	// NVM-direct because they are the persistence-critical objects.
	m.TierRegion(cg.A.Val)
	m.TierRegion(cg.A.Col)
	m.TierRegion(cg.A.RowPtr)
	return cg
}

// row returns the element offset of row i.
func (cg *CG) row(i int) int { return i * cg.N }

// Run executes iterations from..MaxIter (1-based, inclusive). A fresh
// solve starts at from = 1; recovery resumes at the restart iteration.
// Each iteration performs the paper's Figure 2 body: flush the iteration
// counter's cache line, then the standard CG updates writing into the
// next history row, then fire the end-of-iteration crash trigger.
func (cg *CG) Run(from int) {
	m, cpu := cg.M, cg.M.CPU
	n := cg.N
	if from < 1 {
		from = 1
	}
	// rho = r_from' * r_from.
	cg.rho = sparse.SimDot(cpu, cg.R, cg.row(from), cg.R, cg.row(from), n)
	for i := from; i <= cg.Opts.MaxIter; i++ {
		start := m.Clock.Now()
		// Figure 2 line 3: flush the cache line containing i.
		cg.IterNum.Set(0, int64(i))
		m.Persist(cg.IterNum.Addr(0), 8)

		// q_i = A p_i.
		cg.A.SpMV(cpu, cg.Q, cg.row(i), cg.P, cg.row(i))
		// alpha = rho / (p_i' q_i).
		pq := sparse.SimDot(cpu, cg.P, cg.row(i), cg.Q, cg.row(i), n)
		alpha := cg.rho / pq
		// z_{i+1} = z_i + alpha p_i.
		sparse.SimAxpby(cpu, cg.Z, cg.row(i+1), cg.Z, cg.row(i), alpha, cg.P, cg.row(i), n)
		// r_{i+1} = r_i - alpha q_i.
		sparse.SimAxpby(cpu, cg.R, cg.row(i+1), cg.R, cg.row(i), -alpha, cg.Q, cg.row(i), n)
		// beta = rho_{i+1} / rho_i.
		rho1 := sparse.SimDot(cpu, cg.R, cg.row(i+1), cg.R, cg.row(i+1), n)
		beta := rho1 / cg.rho
		cg.rho = rho1
		// p_{i+1} = r_{i+1} + beta p_i.
		sparse.SimAxpby(cpu, cg.P, cg.row(i+1), cg.R, cg.row(i+1), beta, cg.P, cg.row(i), n)

		if cg.Opts.CheckResidual {
			cg.checkIteration(i)
		}
		cg.IterNS[i] = m.Clock.Since(start)
		cg.iter = i
		if cg.Em != nil {
			cg.Em.Trigger(TriggerCGIterEnd)
		}
	}
}

// checkIteration performs the paper's Figure 2 line 12: verify
// r_{i+1} = b - A*z_{i+1} through simulated memory. The online-ABFT
// check detects soft errors in the freshly written rows; a failure bumps
// ResidualAlarms (a production solver would trigger rollback).
func (cg *CG) checkIteration(i int) {
	m, cpu := cg.M, cg.M.CPU
	n := cg.N
	if cg.checkAz == nil {
		cg.checkAz = m.Heap.AllocF64("cg.checkAz", n)
	}
	cg.A.SpMV(cpu, cg.checkAz, 0, cg.Z, cg.row(i+1))
	var resid, bn float64
	const chunk = 512
	for lo := 0; lo < n; lo += chunk {
		c := lo + chunk
		if c > n {
			c = n
		}
		r := cg.R.LoadRange(cg.row(i+1)+lo, c-lo)
		b := cg.B.LoadRange(lo, c-lo)
		az := cg.checkAz.LoadRange(lo, c-lo)
		for k := range r {
			d := r[k] - (b[k] - az[k])
			resid += d * d
			bn += b[k] * b[k]
		}
	}
	cpu.Compute(int64(5 * n))
	if math.Sqrt(resid) > cg.Opts.InvTol*math.Sqrt(bn) {
		cg.ResidualAlarms++
	}
}

// Residual returns the true relative residual ||b - A z|| / ||b|| of the
// solution accumulated in history row MaxIter+1, computed natively.
func (cg *CG) Residual() float64 {
	n := cg.N
	z := cg.Z.Live()[cg.row(cg.Opts.MaxIter+1):cg.row(cg.Opts.MaxIter+2)]
	az := make([]float64, n)
	sparse.SpMV(az, cg.An, z)
	num, den := 0.0, 0.0
	for i := 0; i < n; i++ {
		d := cg.B.Live()[i] - az[i]
		num += d * d
		den += cg.B.Live()[i] * cg.B.Live()[i]
	}
	return math.Sqrt(num / den)
}

// CGRecovery reports the outcome of post-crash detection.
type CGRecovery struct {
	// CrashIter is the iteration number found in the flushed counter.
	CrashIter int
	// RestartIter is the iteration to resume from (RestartIter-1 = j,
	// the newest iteration whose rows verified). 1 means restart from
	// the beginning.
	RestartIter int
	// IterationsLost is CrashIter - j: the work to redo.
	IterationsLost int
	// Checked counts candidate iterations examined during detection.
	Checked int
	// DetectNS is the simulated time spent detecting where to restart.
	DetectNS int64
}

// Recover implements the paper's detection walk: starting from the
// crashed iteration (read from the flushed counter in NVM), examine
// candidate iterations j downwards until the invariants hold on the
// persistent image, then prepare live state to resume from j+1.
//
// Cost accounting: the cheap vector invariants are checked first; the
// expensive residual invariant (one SpMV over A) runs only for
// candidates that pass them, which is why "detecting where to restart"
// is a small fraction of an iteration in the paper's Figure 3.
func (cg *CG) Recover() CGRecovery {
	m := cg.M
	n := cg.N
	start := m.Clock.Now()
	rec := CGRecovery{CrashIter: int(cg.IterNum.Image()[0])}
	tol := cg.Opts.InvTol

	img := func(r *mem.F64, row int) []float64 {
		return r.Image()[cg.row(row) : cg.row(row)+n]
	}
	bImg := cg.B.Image()

	// One scratch vector reused across candidate iterations; SpMVImage
	// overwrites every element, so no clearing is needed between
	// candidates.
	az := make([]float64, n)

	j := rec.CrashIter
	for ; j >= 1; j-- {
		rec.Checked++
		p := img(cg.P, j+1)
		q := img(cg.Q, j)
		r := img(cg.R, j+1)
		z := img(cg.Z, j+1)
		// Vector invariants: read four rows from NVM.
		m.ChargeNVMRead(4 * 8 * n)
		var pq, pn, qn, pr, rr float64
		for i := 0; i < n; i++ {
			pq += p[i] * q[i]
			pn += p[i] * p[i]
			qn += q[i] * q[i]
			pr += p[i] * r[i]
			rr += r[i] * r[i]
		}
		m.CPU.Compute(int64(10 * n))
		if rr == 0 {
			continue // stale zero rows: not a valid state
		}
		if math.Abs(pq) > tol*math.Sqrt(pn*qn) {
			continue // Eq. 1 violated
		}
		if math.Abs(pr-rr) > tol*rr {
			continue // p'r = r'r identity violated
		}
		// Residual invariant (Eq. 2): r = b - A z, one SpMV on the
		// image.
		cg.A.SpMVImage(az, z)
		m.ChargeNVMRead(cg.A.Bytes() + 8*n)
		m.CPU.Compute(int64(2 * cg.An.NNZ()))
		ok := true
		var resid, bn float64
		for i := 0; i < n; i++ {
			d := r[i] - (bImg[i] - az[i])
			resid += d * d
			bn += bImg[i] * bImg[i]
		}
		if math.Sqrt(resid) > tol*math.Sqrt(bn) {
			ok = false
		}
		if ok {
			break
		}
	}
	rec.RestartIter = j + 1
	rec.IterationsLost = rec.CrashIter - j
	rec.DetectNS = m.Clock.Since(start)

	// Prepare live state: the machine already restarted live = image;
	// nothing to copy because the history rows up to j+1 are the
	// consistent state itself. If nothing verified (j = 0), the
	// initial row 1 is the persistent input state.
	return rec
}

// --- Baseline CG variants (paper's seven-case comparison) ---

// BaselineCG is the unmodified CG of the paper's Figure 1: single work
// vectors overwritten in place, paired with a conventional mechanism
// supplied as an engine.Scheme.
type BaselineCG struct {
	M    *crash.Machine
	A    *sparse.SimCSR
	An   *sparse.CSR
	B    *mem.F64
	Opts CGOptions

	N              int
	Pv, Qv, Rv, Zv *mem.F64
	// IterDone persistently records the last committed iteration for
	// transactional schemes (updated inside each iteration's
	// transaction, so a rollback rewinds it with the data).
	IterDone *mem.I64

	Scheme engine.Scheme
	Guard  engine.Guard
	IterNS []int64
	// Em, when set, fires TriggerCGIterEnd at the end of every
	// iteration, making the baseline solver injectable at the same
	// named program points as the extended one.
	Em *crash.Emulator

	rho  float64
	iter int // the iteration the last iteration-end trigger closed
}

// NewBaselineCG builds the Figure 1 solver under the given scheme's
// mechanism (nil means native). Checkpoint schemes save p, r, z at the
// end of every iteration; PMEM schemes wrap each iteration's updates of
// p, r, z in an undo-log transaction (Intel PMEM library usage in the
// paper).
func NewBaselineCG(m *crash.Machine, a *sparse.CSR, opts CGOptions, sc engine.Scheme) *BaselineCG {
	opts.setDefaults()
	if sc == nil {
		sc = engine.MustLookup(engine.SchemeNative)
	}
	n := a.N
	bg := &BaselineCG{
		M: m, An: a, Opts: opts, N: n, Scheme: sc,
		A:        sparse.NewSimCSR(m.Heap, a, "cg.A"),
		B:        m.Heap.AllocF64("cg.b", n),
		Pv:       m.Heap.AllocF64("cg.p", n),
		Qv:       m.Heap.AllocF64("cg.q", n),
		Rv:       m.Heap.AllocF64("cg.r", n),
		Zv:       m.Heap.AllocF64("cg.z", n),
		IterDone: m.Heap.AllocI64("cg.iterdone", 1),
		IterNS:   make([]int64, opts.MaxIter+1),
	}
	// Log capacity for transactional schemes: one iteration writes 3
	// vectors; snapshots are line-deduplicated, so 3n elements (plus
	// slack) suffice.
	bg.Guard = sc.NewGuard(m, 4*n+1024)
	bg.Guard.Register(bg.Pv, bg.Rv, bg.Zv, bg.IterDone)
	ones := make([]float64, n)
	for i := range ones {
		ones[i] = 1
	}
	b := make([]float64, n)
	sparse.SpMV(b, a, ones)
	copy(bg.B.Live(), b)
	copy(bg.B.Image(), b)
	copy(bg.Pv.Live(), b)
	copy(bg.Pv.Image(), b)
	copy(bg.Rv.Live(), b)
	copy(bg.Rv.Image(), b)
	m.TierRegion(bg.A.Val)
	m.TierRegion(bg.A.Col)
	m.TierRegion(bg.A.RowPtr)
	return bg
}

// Run executes the baseline loop for MaxIter iterations.
func (bg *BaselineCG) Run() { bg.RunFrom(1) }

// RunFrom executes iterations from..MaxIter (1-based, inclusive). A
// fresh solve starts at 1; after a crash, resume from the iteration
// Recover returns. rho is recomputed from the current r, so resuming
// from any consistent state is self-contained.
func (bg *BaselineCG) RunFrom(from int) {
	m, cpu := bg.M, bg.M.CPU
	n := bg.N
	if from < 1 {
		from = 1
	}
	bg.rho = sparse.SimDot(cpu, bg.Rv, 0, bg.Rv, 0, n)
	for i := from; i <= bg.Opts.MaxIter; i++ {
		start := m.Clock.Now()
		if bg.Guard.Pool() != nil {
			bg.iterPMEM(i)
		} else {
			bg.iterPlain()
		}
		// End-of-iteration protection of p, r, z — for checkpoint
		// schemes this is the frequency that matches the
		// algorithm-directed approach's one-iteration recomputation
		// bound (paper §III-B performance comparison).
		bg.Guard.EndIteration(int64(i), bg.Pv, bg.Rv, bg.Zv)
		bg.IterNS[i] = m.Clock.Since(start)
		bg.iter = i
		if bg.Em != nil {
			bg.Em.Trigger(TriggerCGIterEnd)
		}
	}
}

// Recover restarts the baseline solver after a crash, per scheme:
// checkpoint schemes restore the last checkpoint and resume after it;
// transactional schemes roll back the torn transaction and resume after
// the last committed iteration; native runs (no mechanism) reinitialize
// and start over. It returns the iteration RunFrom should resume at.
func (bg *BaselineCG) Recover() (from int, err error) {
	switch {
	case bg.Guard.Checkpointer() != nil:
		cp := bg.Guard.Checkpointer()
		if !cp.Valid() {
			bg.reset()
			return 1, nil
		}
		tag := cp.Restore(bg.Pv, bg.Rv, bg.Zv)
		if tag < 0 || tag > int64(bg.Opts.MaxIter) {
			return 0, fmt.Errorf("cg: checkpoint tag %d out of range", tag)
		}
		return int(tag) + 1, nil
	case bg.Guard.Pool() != nil:
		bg.Guard.Pool().Recover()
		done := bg.IterDone.Image()[0]
		if done < 0 || done > int64(bg.Opts.MaxIter) {
			return 0, fmt.Errorf("cg: committed iteration %d out of range", done)
		}
		return int(done) + 1, nil
	default:
		bg.reset()
		return 1, nil
	}
}

// reset reinitializes the work vectors to the solver's starting state
// (p = r = b, z = 0) in both live and image, charging the NVM writes —
// the "restart the application from the beginning" path of a native
// run.
func (bg *BaselineCG) reset() {
	b := bg.B.Image()
	copy(bg.Pv.Live(), b)
	copy(bg.Pv.Image(), b)
	copy(bg.Rv.Live(), b)
	copy(bg.Rv.Image(), b)
	for _, r := range []*mem.F64{bg.Zv, bg.Qv} {
		for i := range r.Live() {
			r.Live()[i] = 0
		}
		for i := range r.Image() {
			r.Image()[i] = 0
		}
	}
	bg.M.ChargeNVMRead(bg.B.Bytes())
	bg.M.ChargeNVMWrite(bg.Pv.Bytes() + bg.Rv.Bytes() + bg.Zv.Bytes() + bg.Qv.Bytes())
}

func (bg *BaselineCG) iterPlain() {
	cpu := bg.M.CPU
	n := bg.N
	bg.A.SpMV(cpu, bg.Qv, 0, bg.Pv, 0)
	pq := sparse.SimDot(cpu, bg.Pv, 0, bg.Qv, 0, n)
	alpha := bg.rho / pq
	sparse.SimAxpby(cpu, bg.Zv, 0, bg.Zv, 0, alpha, bg.Pv, 0, n)
	sparse.SimAxpby(cpu, bg.Rv, 0, bg.Rv, 0, -alpha, bg.Qv, 0, n)
	rho1 := sparse.SimDot(cpu, bg.Rv, 0, bg.Rv, 0, n)
	beta := rho1 / bg.rho
	bg.rho = rho1
	// p = r + beta p.
	sparse.SimAxpby(cpu, bg.Pv, 0, bg.Rv, 0, beta, bg.Pv, 0, n)
}

// iterPMEM performs iteration i with the updates of p, r, z wrapped in
// an undo-log transaction, as the paper configures the PMEM library
// ("each iteration of the main loop of CG is a transaction"). The
// persistent iteration index commits with the data, so a crash rolls
// both back together.
func (bg *BaselineCG) iterPMEM(i int) {
	cpu := bg.M.CPU
	n := bg.N
	tx := bg.Guard.Pool().Begin()
	tx.SetI64(bg.IterDone, 0, int64(i))
	bg.A.SpMV(cpu, bg.Qv, 0, bg.Pv, 0)
	pq := sparse.SimDot(cpu, bg.Pv, 0, bg.Qv, 0, n)
	alpha := bg.rho / pq

	// z += alpha p (transactional).
	zdst := tx.StoreRangeF64(bg.Zv, 0, n)
	p := bg.Pv.LoadRange(0, n)
	for k := 0; k < n; k++ {
		zdst[k] += alpha * p[k]
	}
	cpu.Compute(int64(2 * n))
	// r -= alpha q (transactional).
	rdst := tx.StoreRangeF64(bg.Rv, 0, n)
	q := bg.Qv.LoadRange(0, n)
	for k := 0; k < n; k++ {
		rdst[k] -= alpha * q[k]
	}
	cpu.Compute(int64(2 * n))
	rho1 := sparse.SimDot(cpu, bg.Rv, 0, bg.Rv, 0, n)
	beta := rho1 / bg.rho
	bg.rho = rho1
	// p = r + beta p (transactional).
	pdst := tx.StoreRangeF64(bg.Pv, 0, n)
	r := bg.Rv.LoadRange(0, n)
	for k := 0; k < n; k++ {
		pdst[k] = r[k] + beta*pdst[k]
	}
	cpu.Compute(int64(2 * n))
	tx.Commit()
}

// Residual returns the true relative residual of the baseline solution.
func (bg *BaselineCG) Residual() float64 {
	n := bg.N
	az := make([]float64, n)
	sparse.SpMV(az, bg.An, bg.Zv.Live())
	num, den := 0.0, 0.0
	for i := 0; i < n; i++ {
		d := bg.B.Live()[i] - az[i]
		num += d * d
		den += bg.B.Live()[i] * bg.B.Live()[i]
	}
	return math.Sqrt(num / den)
}

// AvgIterNS returns the mean simulated iteration time of a completed
// run (entry 0 of the 1-based iteration record is unused).
func AvgIterNS(iterNS []int64) int64 {
	return AvgPositiveNS(iterNS[1:])
}

func (bg *BaselineCG) String() string {
	return fmt.Sprintf("BaselineCG{n=%d scheme=%s}", bg.N, bg.Scheme.Name())
}
