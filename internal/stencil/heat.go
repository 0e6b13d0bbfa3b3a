package stencil

import (
	"math"

	"adcc/internal/crash"
	"adcc/internal/engine"
	"adcc/internal/mem"
)

// Heat is the extended, algorithm-directed Jacobi relaxation: the
// solution planes carry an iteration dimension (plane i holds the
// iteration-i values, plane 0 the initial condition), so hardware cache
// eviction opportunistically persists old planes, and each sweep
// explicitly flushes only the cache line holding the iteration index
// plus the line holding that sweep's max-change residual. Recovery
// reasons about the persistent image with two algorithm invariants:
//
//	u(j)        = Jacobi(u(j-1))         (relaxation step)
//	max|u(j) - u(j-1)|  =  Res[j]        (recorded residual)
//
// The first detects stale lines in either plane of a candidate pair;
// the second closes its blind spot (an all-stale pair of zero planes is
// self-consistent under the first invariant but can never reproduce the
// flushed, strictly positive residual).
type Heat struct {
	M    *crash.Machine
	Em   *crash.Emulator
	Opts Options

	N int
	// U is the plane history: planes 0..MaxIter of N*N elements each.
	// Plane i is written exactly once, during iteration i.
	U *mem.F64
	// Res records each sweep's max-change residual (1-based; entry 0
	// unused). Flushed per iteration under FlushSelective/FlushEveryIter.
	Res *mem.F64
	// IterNum is the flushed iteration counter (one line).
	IterNum *mem.I64

	// Policy selects the algorithm-directed flush variant:
	// FlushSelective (the full protocol, default), FlushIndexOnly (the
	// rejected naive design: only the index line is flushed and
	// recovery trusts the image blindly — the stencil analogue of the
	// paper's Figure 10 bias), or FlushEveryIter (flush the whole fresh
	// plane each sweep: expensive but never loses more than one
	// iteration).
	Policy engine.FlushPolicy

	// IterNS records the simulated duration of each completed sweep
	// (1-based; entry 0 unused).
	IterNS []int64

	iter int // the sweep the last iteration-end trigger closed
}

// NewHeat builds the extended relaxation on a machine (em may be nil
// when no crash will be injected). The initial condition — plane 0 with
// its boundary heat sources — is made persistent, as the paper assumes
// for the input of a computation.
func NewHeat(m *crash.Machine, em *crash.Emulator, opts Options) *Heat {
	opts.setDefaults()
	n := opts.N
	nn := n * n
	h := &Heat{
		M: m, Em: em, Opts: opts, N: n,
		U:       m.Heap.AllocF64("heat.u", (opts.MaxIter+1)*nn),
		Res:     m.Heap.AllocF64("heat.res", opts.MaxIter+1),
		IterNum: m.Heap.AllocI64("heat.iter", 1),
		Policy:  engine.FlushSelective,
		IterNS:  make([]int64, opts.MaxIter+1),
	}
	g := InitialGrid(n, opts.Seed)
	copy(h.U.Live()[:nn], g)
	copy(h.U.Image()[:nn], g)
	return h
}

// plane returns the element offset of plane i.
func (h *Heat) plane(i int) int { return i * h.N * h.N }

// Run executes sweeps from..MaxIter (1-based, inclusive). A fresh run
// starts at from = 1; recovery resumes at the restart iteration. Each
// sweep flushes the iteration-counter line, relaxes plane from-1 into
// plane from (boundary carried over), records the residual, and flushes
// per the policy.
func (h *Heat) Run(from int) {
	m := h.M
	if from < 1 {
		from = 1
	}
	for i := from; i <= h.Opts.MaxIter; i++ {
		start := m.Clock.Now()
		h.IterNum.Set(0, int64(i))
		m.Persist(h.IterNum.Addr(0), 8)

		res := sweepSim(m.CPU, h.U, h.plane(i-1), h.U, h.plane(i), h.N)
		h.Res.Set(i, res)
		switch h.Policy {
		case engine.FlushSelective:
			m.Persist(h.Res.Addr(i), 8)
		case engine.FlushEveryIter:
			m.Persist(h.Res.Addr(i), 8)
			m.Persist(h.U.Addr(h.plane(i)), 8*h.N*h.N)
		}

		h.IterNS[i] = m.Clock.Since(start)
		h.iter = i
		if h.Em != nil {
			h.Em.Trigger(TriggerIterEnd)
		}
	}
}

// Result returns the live final plane.
func (h *Heat) Result() []float64 {
	return h.U.Live()[h.plane(h.Opts.MaxIter):h.plane(h.Opts.MaxIter+1)]
}

// Residual returns the last recorded max-change residual.
func (h *Heat) Residual() float64 { return h.Res.Live()[h.Opts.MaxIter] }

// Recovery reports the outcome of post-crash detection.
type Recovery struct {
	// CrashIter is the iteration number found in the flushed counter.
	CrashIter int
	// RestartIter is the sweep to resume from (RestartIter-1 = j, the
	// newest iteration whose plane pair verified). 1 means restart from
	// the initial condition.
	RestartIter int
	// IterationsLost is CrashIter - j: the work to redo.
	IterationsLost int
	// Checked counts candidate iterations examined during detection.
	Checked int
	// DetectNS is the simulated time spent detecting where to restart.
	DetectNS int64
}

// Recover implements the detection walk on the persistent image:
// starting from the crashed iteration (read from the flushed counter),
// examine candidate iterations j downwards until the plane pair
// (j-1, j) satisfies the relaxation invariant and the recorded residual
// matches, then resume from j+1. If nothing verifies, plane 0 — the
// persistent initial condition — is the restart state.
//
// Under FlushIndexOnly the walk is skipped: the naive design trusts the
// image at the crashed iteration blindly, which is exactly what makes
// it corrupt (the campaign reproduces the bias statistically).
func (h *Heat) Recover() Recovery {
	m := h.M
	nn := h.N * h.N
	start := m.Clock.Now()
	rec := Recovery{CrashIter: int(h.IterNum.Image()[0])}
	if rec.CrashIter < 0 {
		rec.CrashIter = 0
	}
	if rec.CrashIter > h.Opts.MaxIter {
		rec.CrashIter = h.Opts.MaxIter
	}

	if h.Policy == engine.FlushIndexOnly {
		// Naive restart: redo only the crashed sweep from whatever the
		// image holds for plane CrashIter-1.
		rec.RestartIter = rec.CrashIter
		if rec.RestartIter < 1 {
			rec.RestartIter = 1
		}
		rec.IterationsLost = rec.CrashIter - (rec.RestartIter - 1)
		m.ChargeNVMRead(8 * nn)
		rec.DetectNS = m.Clock.Since(start)
		return rec
	}

	j := rec.CrashIter
	for ; j >= 1; j-- {
		rec.Checked++
		// Two planes plus the residual entry, read from NVM; the
		// invariant evaluation costs ~8 flops per cell.
		m.ChargeNVMRead(2*8*nn + 16)
		m.CPU.Compute(int64(8 * nn))
		if h.planeConsistent(j) {
			break
		}
	}
	rec.RestartIter = j + 1
	rec.IterationsLost = rec.CrashIter - j
	rec.DetectNS = m.Clock.Since(start)
	// The machine already restarted live = image, and plane j of the
	// image is the consistent state itself — nothing to copy.
	return rec
}

// planeConsistent checks the persistent image of the pair (j-1, j)
// against the two recovery invariants.
func (h *Heat) planeConsistent(j int) bool {
	n, nn := h.N, h.N*h.N
	tol := h.Opts.InvTol
	img := h.U.Image()
	prev := img[(j-1)*nn : j*nn]
	cur := img[j*nn : (j+1)*nn]

	// Boundary ring must carry over exactly: both values are either the
	// true persisted ones (equal) or a stale zero against a strictly
	// positive heat source.
	for c := 0; c < n; c++ {
		if cur[c] != prev[c] || cur[(n-1)*n+c] != prev[(n-1)*n+c] {
			return false
		}
	}
	maxd := 0.0
	for r := 1; r < n-1; r++ {
		ro := r * n
		if cur[ro] != prev[ro] || cur[ro+n-1] != prev[ro+n-1] {
			return false
		}
		for c := 1; c < n-1; c++ {
			want := 0.25 * (prev[ro-n+c] + prev[ro+n+c] + prev[ro+c-1] + prev[ro+c+1])
			got := cur[ro+c]
			if math.Abs(got-want) > tol*math.Max(1, math.Abs(want)) {
				return false
			}
			if d := math.Abs(got - prev[ro+c]); d > maxd {
				maxd = d
			}
		}
	}
	// Residual invariant: the recorded (flushed) residual of sweep j
	// must match the observed max change. Requiring both strictly
	// positive rejects the all-stale zero pair, which the relaxation
	// invariant alone cannot see.
	recorded := h.Res.Image()[j]
	if recorded <= 0 || maxd <= 0 {
		return false
	}
	return math.Abs(maxd-recorded) <= tol*recorded
}
