package core

import (
	"fmt"

	"adcc/internal/abft"
	"adcc/internal/crash"
	"adcc/internal/dense"
	"adcc/internal/engine"
	"adcc/internal/mem"
)

// Named crash points of the extended ABFT matrix multiplication.
const (
	// TriggerMMLoop1IterEnd fires at the end of each submatrix
	// multiplication (first loop of the paper's Figure 6).
	TriggerMMLoop1IterEnd = "mm.loop1-iter-end"
	// TriggerMMLoop2IterEnd fires at the end of each submatrix
	// addition block (second loop of Figure 6).
	TriggerMMLoop2IterEnd = "mm.loop2-iter-end"
)

// MMOptions configures the ABFT matrix multiplication study.
type MMOptions struct {
	// N is the data matrix dimension (the full checksum matrices are
	// (N+1) x (N+1)). N must be divisible by K.
	N int
	// K is the rank of each update (the paper's rank-k panels).
	K int
	// InvTol is the relative checksum tolerance. Zero means 1e-8.
	InvTol float64
	// Seed drives input generation.
	Seed int64
}

// normalize fills the defaults and rejects a dimension the rank does not
// divide.
func (o *MMOptions) normalize() error {
	if o.InvTol == 0 {
		o.InvTol = 1e-8
	}
	if o.N == 0 {
		o.N = 96
	}
	if o.K == 0 {
		o.K = 16
	}
	if o.N%o.K != 0 {
		return fmt.Errorf("core: MM N=%d not divisible by K=%d", o.N, o.K)
	}
	return nil
}

// setDefaults is normalize for the constructors, which have no error to
// return; the engine.Workload adapters call normalize in Prepare, so a
// bad shape built from user input reaches the caller as an error.
func (o *MMOptions) setDefaults() {
	if err := o.normalize(); err != nil {
		panic(err.Error())
	}
}

// MM is the paper's extended ABFT matrix multiplication (Figure 6). The
// single rank-k accumulation loop of classic ABFT (Figure 5) is split
// into:
//
//	loop 1 — submatrix multiplications into temporal matrices Ctemp_s,
//	         flushing each result's checksum row and column;
//	loop 2 — block-row additions of the temporal matrices into Ctemp,
//	         flushing the row checksums of each block.
//
// Checksums, once flushed, are never overwritten, so recovery can verify
// any block of the persistent image at any moment, correct single stale
// elements, and recompute only damaged blocks.
type MM struct {
	M    *crash.Machine
	Em   *crash.Emulator
	Opts MMOptions

	// A and B are the raw inputs; Ac and Br their checksum encodings
	// in simulated memory (Equations 3 and 4).
	A, B *dense.Matrix
	Ac   *dense.SimMatrix // (N+1) x N
	Br   *dense.SimMatrix // N x (N+1)

	// Ctemps are the S = N/K temporal full-checksum products.
	Ctemps []*dense.SimMatrix // each (N+1) x (N+1)
	// Ctemp is the row-checksummed accumulation target of loop 2.
	Ctemp *dense.SimMatrix // (N+1) x (N+1)

	// PanelNS and BlockNS record per-iteration simulated durations.
	PanelNS []int64
	BlockNS []int64

	scratch *mem.F64 // one-row accumulation buffer for loop 2
}

// NewMM builds the extended multiplication with positive random inputs
// (entries in (0,1)), so a computed block is never all-zero and the
// zero/uncomputed signature of recovery is unambiguous. The encoded
// inputs are made persistent, as the paper assumes.
func NewMM(m *crash.Machine, em *crash.Emulator, opts MMOptions) *MM {
	opts.setDefaults()
	n, k := opts.N, opts.K
	s := n / k
	mm := &MM{M: m, Em: em, Opts: opts}
	mm.A = dense.Random(n, n, opts.Seed)
	mm.B = dense.Random(n, n, opts.Seed+1)

	ac := abft.EncodeColumnChecksum(mm.A.Data, n, n)
	br := abft.EncodeRowChecksum(mm.B.Data, n, n)
	mm.Ac = dense.UploadSim(m.Heap, "mm.Ac", &dense.Matrix{Rows: n + 1, Cols: n, Data: ac})
	mm.Br = dense.UploadSim(m.Heap, "mm.Br", &dense.Matrix{Rows: n, Cols: n + 1, Data: br})

	mm.Ctemps = make([]*dense.SimMatrix, s)
	for i := range mm.Ctemps {
		mm.Ctemps[i] = dense.NewSim(m.Heap, fmt.Sprintf("mm.Ctemp%d", i), n+1, n+1)
	}
	mm.Ctemp = dense.NewSim(m.Heap, "mm.Ctemp", n+1, n+1)
	mm.scratch = m.Heap.AllocF64("mm.scratch", n+1)
	mm.PanelNS = make([]int64, s)
	mm.BlockNS = make([]int64, mm.NumBlocks())

	// Inputs are read-mostly: DRAM-tiered on the heterogeneous system.
	m.TierRegion(mm.Ac.R)
	m.TierRegion(mm.Br.R)
	return mm
}

// NumPanels returns S, the number of submatrix multiplications.
func (mm *MM) NumPanels() int { return mm.Opts.N / mm.Opts.K }

// NumBlocks returns the number of k-row blocks of loop 2 (the last block
// absorbs the remainder row of the checksum row).
func (mm *MM) NumBlocks() int {
	return (mm.Opts.N + 1 + mm.Opts.K - 1) / mm.Opts.K
}

// blockRows returns the row range [i0, i1) of block b.
func (mm *MM) blockRows(b int) (int, int) {
	i0 := b * mm.Opts.K
	i1 := i0 + mm.Opts.K
	if i1 > mm.Opts.N+1 {
		i1 = mm.Opts.N + 1
	}
	return i0, i1
}

// flushChecksums flushes the checksum row and column of a full-checksum
// matrix (Figure 6 line 5).
func (mm *MM) flushChecksums(c *dense.SimMatrix) {
	cols := c.Cols
	// Checksum row: contiguous.
	mm.M.Persist(c.R.Addr(c.Idx(c.Rows-1, 0)), 8*cols)
	// Checksum column: one line per row.
	for i := 0; i < c.Rows; i++ {
		mm.M.Persist(c.R.Addr(c.Idx(i, cols-1)), 8)
	}
}

// RunLoop1 executes submatrix multiplications for panels [fromS, S).
// Each panel computes Ctemp_s = Ac(:, s·k : (s+1)·k) x Br(s·k : (s+1)·k, :)
// and flushes its checksum row and column.
func (mm *MM) RunLoop1(fromS int) {
	k := mm.Opts.K
	for s := fromS; s < mm.NumPanels(); s++ {
		start := mm.M.Clock.Now()
		dense.GemmAcc(mm.M.CPU, mm.Ctemps[s], mm.Ac, mm.Br, s*k, k)
		mm.flushChecksums(mm.Ctemps[s])
		mm.PanelNS[s] = mm.M.Clock.Since(start)
		if mm.Em != nil {
			mm.Em.Trigger(TriggerMMLoop1IterEnd)
		}
	}
}

// RunLoop2 executes the submatrix additions for blocks [fromB, NumBlocks).
// Each row of a block is accumulated over all temporal matrices in a
// volatile scratch buffer and written to Ctemp once, so a row in NVM is
// either absent (zero), complete, or detectably torn — never a silent
// partial sum. The block's row checksums are then flushed (Figure 6
// line 13).
func (mm *MM) RunLoop2(fromB int) {
	n1 := mm.Opts.N + 1
	for b := fromB; b < mm.NumBlocks(); b++ {
		start := mm.M.Clock.Now()
		i0, i1 := mm.blockRows(b)
		for i := i0; i < i1; i++ {
			acc := mm.scratch.StoreRange(0, n1)
			for j := range acc {
				acc[j] = 0
			}
			for _, cs := range mm.Ctemps {
				row := cs.RowLoad(i, 0, n1)
				for j, v := range row {
					acc[j] += v
				}
			}
			mm.M.CPU.Compute(int64(len(mm.Ctemps) * n1))
			// Read the scratch before publishing the output row: no
			// cache activity may occur between a store notification
			// and the completion of the mutation it covers.
			src := mm.scratch.LoadRange(0, n1)
			out := mm.Ctemp.RowStore(i, 0, n1)
			copy(out, src)
		}
		// Flush the k rows of row checksums (the last column element
		// of each row in the block).
		for i := i0; i < i1; i++ {
			mm.M.Persist(mm.Ctemp.R.Addr(mm.Ctemp.Idx(i, n1-1)), 8)
		}
		mm.BlockNS[b] = mm.M.Clock.Since(start)
		if mm.Em != nil {
			mm.Em.Trigger(TriggerMMLoop2IterEnd)
		}
	}
}

// Run executes the full extended multiplication.
func (mm *MM) Run() {
	mm.RunLoop1(0)
	mm.RunLoop2(0)
}

// Result returns the live data part of Ctemp as an N x N matrix.
func (mm *MM) Result() *dense.Matrix {
	n := mm.Opts.N
	out := dense.New(n, n)
	for i := 0; i < n; i++ {
		copy(out.Row(i), mm.Ctemp.Live()[i*(n+1):i*(n+1)+n])
	}
	return out
}

// BlockStatus classifies one temporal matrix or row block during
// recovery.
type BlockStatus int

const (
	// BlockConsistent verified cleanly with nonzero content: complete.
	BlockConsistent BlockStatus = iota
	// BlockZero is all-zero: never computed (or fully lost).
	BlockZero
	// BlockCorrected had stale elements repaired via checksums.
	BlockCorrected
	// BlockRecompute is inconsistent beyond checksum correction.
	BlockRecompute
)

// String names the status.
func (s BlockStatus) String() string {
	switch s {
	case BlockConsistent:
		return "consistent"
	case BlockZero:
		return "zero"
	case BlockCorrected:
		return "corrected"
	case BlockRecompute:
		return "recompute"
	default:
		return fmt.Sprintf("BlockStatus(%d)", int(s))
	}
}

// MMRecovery reports post-crash detection for either loop.
type MMRecovery struct {
	// Status per panel (loop 1 recovery) or per row block (loop 2).
	Status []BlockStatus
	// DetectNS is the simulated time of the detection scan.
	DetectNS int64
}

// NeedsRecompute returns the indices that must be re-executed.
func (r MMRecovery) NeedsRecompute() []int {
	var out []int
	for i, s := range r.Status {
		if s == BlockZero || s == BlockRecompute {
			out = append(out, i)
		}
	}
	return out
}

// RecoverLoop1 examines the persistent image of every temporal matrix:
// checksum-consistent nonzero blocks are complete; all-zero blocks were
// never computed; inconsistent blocks are corrected via checksums when
// possible and otherwise marked for recomputation. Corrections are
// applied to live state and flushed.
func (mm *MM) RecoverLoop1() MMRecovery {
	start := mm.M.Clock.Now()
	n1 := mm.Opts.N + 1
	tol := mm.Opts.InvTol
	rec := MMRecovery{Status: make([]BlockStatus, mm.NumPanels())}
	for s, cs := range mm.Ctemps {
		mm.M.ChargeNVMRead(cs.R.Bytes())
		mm.M.CPU.Compute(int64(2 * n1 * n1))
		img := cs.Image()
		rep := abft.VerifyFull(img, n1, n1, tol)
		switch {
		case rep.AllZero:
			rec.Status[s] = BlockZero
		case rep.Consistent():
			rec.Status[s] = BlockConsistent
		default:
			// Attempt checksum correction on the live copy (live ==
			// image after restart).
			if _, ok := abft.CorrectSingle(cs.Live(), n1, n1, tol); ok {
				// Persist the repair.
				cs.R.StoreRange(0, n1*n1)
				mm.M.Persist(cs.R.Addr(0), cs.R.Bytes())
				rec.Status[s] = BlockCorrected
			} else {
				rec.Status[s] = BlockRecompute
			}
		}
	}
	rec.DetectNS = mm.M.Clock.Since(start)
	return rec
}

// ResumeLoop1 zeroes and recomputes the panels named by rec, completing
// loop 1 after a crash.
func (mm *MM) ResumeLoop1(rec MMRecovery) {
	k := mm.Opts.K
	n1 := mm.Opts.N + 1
	for _, s := range rec.NeedsRecompute() {
		cs := mm.Ctemps[s]
		// Zero the block (its stale content must not accumulate).
		for i := 0; i < n1; i++ {
			row := cs.RowStore(i, 0, n1)
			for j := range row {
				row[j] = 0
			}
		}
		start := mm.M.Clock.Now()
		dense.GemmAcc(mm.M.CPU, cs, mm.Ac, mm.Br, s*k, k)
		mm.flushChecksums(cs)
		mm.PanelNS[s] = mm.M.Clock.Since(start)
	}
}

// RecoverLoop2 examines the persistent image of Ctemp: a row block is
// complete if every row verifies against its row checksum with nonzero
// content. Zero rows were never written; torn rows fail verification.
func (mm *MM) RecoverLoop2() MMRecovery {
	start := mm.M.Clock.Now()
	n1 := mm.Opts.N + 1
	tol := mm.Opts.InvTol
	rec := MMRecovery{Status: make([]BlockStatus, mm.NumBlocks())}
	img := mm.Ctemp.Image()
	mm.M.ChargeNVMRead(mm.Ctemp.R.Bytes())
	mm.M.CPU.Compute(int64(n1 * n1))
	badRows := map[int]bool{}
	for _, r := range abft.VerifyRows(img, n1, n1, tol) {
		badRows[r] = true
	}
	for b := 0; b < mm.NumBlocks(); b++ {
		i0, i1 := mm.blockRows(b)
		status := BlockConsistent
		for i := i0; i < i1; i++ {
			row := img[i*n1 : (i+1)*n1]
			zero := true
			for _, v := range row {
				if v != 0 {
					zero = false
					break
				}
			}
			if zero || badRows[i] {
				status = BlockRecompute
				break
			}
		}
		rec.Status[b] = status
	}
	rec.DetectNS = mm.M.Clock.Since(start)
	return rec
}

// ResumeLoop2 re-executes the row-block additions named by rec.
// RunLoop2 overwrites each row from the volatile scratch sum, so stale
// content needs no pre-zeroing.
func (mm *MM) ResumeLoop2(rec MMRecovery) {
	for _, b := range rec.NeedsRecompute() {
		mm.runOneBlock(b)
	}
}

func (mm *MM) runOneBlock(b int) {
	saveEm := mm.Em
	mm.Em = nil
	defer func() { mm.Em = saveEm }()
	// Run just this block by bounding the loop.
	n1 := mm.Opts.N + 1
	start := mm.M.Clock.Now()
	i0, i1 := mm.blockRows(b)
	for i := i0; i < i1; i++ {
		acc := mm.scratch.StoreRange(0, n1)
		for j := range acc {
			acc[j] = 0
		}
		for _, cs := range mm.Ctemps {
			row := cs.RowLoad(i, 0, n1)
			for j, v := range row {
				acc[j] += v
			}
		}
		mm.M.CPU.Compute(int64(len(mm.Ctemps) * n1))
		out := mm.Ctemp.RowStore(i, 0, n1)
		copy(out, mm.scratch.LoadRange(0, n1))
	}
	for i := i0; i < i1; i++ {
		mm.M.Persist(mm.Ctemp.R.Addr(mm.Ctemp.Idx(i, n1-1)), 8)
	}
	mm.BlockNS[b] = mm.M.Clock.Since(start)
}

// --- Baseline ABFT MM (Figure 5) with conventional mechanisms ---

// BaselineMM is the classic single-loop ABFT rank-k multiplication of
// the paper's Figure 5: verify Cf's checksums, then accumulate one
// rank-k product per iteration, with the per-iteration protection
// (checkpoint of Cf or a PMEM transaction around the update) supplied by
// the scheme's guard.
type BaselineMM struct {
	M    *crash.Machine
	Opts MMOptions

	Scheme engine.Scheme
	Guard  engine.Guard
	// Em, when set, fires TriggerMMLoop1IterEnd at the end of every
	// panel, making the baseline multiplication injectable at the same
	// named program points as the extended one.
	Em *crash.Emulator

	Ac, Br, Cf *dense.SimMatrix
	// PanelDone persistently records the last committed panel for
	// transactional schemes (-1 = none), updated inside each panel's
	// transaction so a rollback rewinds it with the data.
	PanelDone *mem.I64
	PanelNS   []int64

	colSums []float64 // verifyCf scratch, reused across panels
	panel   int       // the panel the last loop-1 trigger closed
}

// NewBaselineMM builds the Figure 5 multiplication under the given
// scheme's mechanism (nil means native).
func NewBaselineMM(m *crash.Machine, opts MMOptions, sc engine.Scheme) *BaselineMM {
	opts.setDefaults()
	if sc == nil {
		sc = engine.MustLookup(engine.SchemeNative)
	}
	n := opts.N
	a := dense.Random(n, n, opts.Seed)
	b := dense.Random(n, n, opts.Seed+1)
	ac := abft.EncodeColumnChecksum(a.Data, n, n)
	br := abft.EncodeRowChecksum(b.Data, n, n)
	bm := &BaselineMM{
		M: m, Opts: opts, Scheme: sc,
		Ac:        dense.UploadSim(m.Heap, "mm.Ac", &dense.Matrix{Rows: n + 1, Cols: n, Data: ac}),
		Br:        dense.UploadSim(m.Heap, "mm.Br", &dense.Matrix{Rows: n, Cols: n + 1, Data: br}),
		Cf:        dense.NewSim(m.Heap, "mm.Cf", n+1, n+1),
		PanelDone: m.Heap.AllocI64("mm.paneldone", 1),
		PanelNS:   make([]int64, n/opts.K),
		colSums:   make([]float64, n+1),
	}
	bm.PanelDone.Live()[0] = -1
	bm.PanelDone.Image()[0] = -1
	// Transactional log capacity: one panel snapshots all of Cf once.
	bm.Guard = sc.NewGuard(m, (n+1)*(n+1)+1024)
	bm.Guard.Register(bm.Cf.R, bm.PanelDone)
	m.TierRegion(bm.Ac.R)
	m.TierRegion(bm.Br.R)
	return bm
}

// Run executes the Figure 5 loop.
func (bm *BaselineMM) Run() { bm.RunFrom(0) }

// RunFrom executes panels fromS..S-1. A fresh multiplication starts at
// 0; after a crash, resume from the panel Recover returns.
func (bm *BaselineMM) RunFrom(fromS int) {
	n1 := bm.Opts.N + 1
	k := bm.Opts.K
	if fromS < 0 {
		fromS = 0
	}
	for s := fromS; s < bm.Opts.N/k; s++ {
		start := bm.M.Clock.Now()
		// Figure 5 line 2: verify the checksum relationship of Cf.
		bm.verifyCf()
		if pool := bm.Guard.Pool(); pool != nil {
			tx := pool.Begin()
			tx.SetI64(bm.PanelDone, 0, int64(s))
			tx.Snapshot(bm.Cf.R, 0, n1*n1)
			dense.GemmAcc(bm.M.CPU, bm.Cf, bm.Ac, bm.Br, s*k, k)
			// Commit must flush everything the panel wrote.
			_ = tx.StoreRangeF64(bm.Cf.R, 0, n1*n1)
			tx.Commit()
		} else {
			dense.GemmAcc(bm.M.CPU, bm.Cf, bm.Ac, bm.Br, s*k, k)
		}
		bm.Guard.EndIteration(int64(s), bm.Cf.R)
		bm.PanelNS[s] = bm.M.Clock.Since(start)
		bm.panel = s
		if bm.Em != nil {
			bm.Em.Trigger(TriggerMMLoop1IterEnd)
		}
	}
}

// Recover restarts the baseline multiplication after a crash, per
// scheme: checkpoint schemes restore the last checkpoint of Cf and
// resume after it; transactional schemes roll back the torn transaction
// and resume after the last committed panel; native runs zero Cf and
// start over. It returns the panel RunFrom should resume at.
func (bm *BaselineMM) Recover() (fromS int, err error) {
	panels := bm.Opts.N / bm.Opts.K
	switch {
	case bm.Guard.Checkpointer() != nil:
		cp := bm.Guard.Checkpointer()
		if !cp.Valid() {
			bm.reset()
			return 0, nil
		}
		tag := cp.Restore(bm.Cf.R)
		if tag < 0 || tag >= int64(panels) {
			return 0, fmt.Errorf("mm: checkpoint tag %d out of range", tag)
		}
		return int(tag) + 1, nil
	case bm.Guard.Pool() != nil:
		bm.Guard.Pool().Recover()
		done := bm.PanelDone.Image()[0]
		if done < -1 || done >= int64(panels) {
			return 0, fmt.Errorf("mm: committed panel %d out of range", done)
		}
		return int(done) + 1, nil
	default:
		bm.reset()
		return 0, nil
	}
}

// reset zeroes the accumulation target in both live and image, charging
// the NVM writes — the restart-from-scratch path of a native run.
func (bm *BaselineMM) reset() {
	for i := range bm.Cf.R.Live() {
		bm.Cf.R.Live()[i] = 0
	}
	for i := range bm.Cf.R.Image() {
		bm.Cf.R.Image()[i] = 0
	}
	bm.M.ChargeNVMWrite(bm.Cf.R.Bytes())
}

// verifyCf streams Cf once, recomputing row and column sums (the ABFT
// error detection step of Figure 5). The column-sum scratch is reused
// across panels instead of being reallocated per iteration.
func (bm *BaselineMM) verifyCf() {
	n1 := bm.Opts.N + 1
	colSums := bm.colSums[:n1]
	for j := range colSums {
		colSums[j] = 0
	}
	for i := 0; i < n1; i++ {
		row := bm.Cf.RowLoad(i, 0, n1)
		s := 0.0
		for j, v := range row {
			s += v
			colSums[j] += v
		}
		_ = s
	}
	bm.M.CPU.Compute(int64(2 * n1 * n1))
}

// Result returns the live data part of Cf.
func (bm *BaselineMM) Result() *dense.Matrix {
	n := bm.Opts.N
	out := dense.New(n, n)
	for i := 0; i < n; i++ {
		copy(out.Row(i), bm.Cf.Live()[i*(n+1):i*(n+1)+n])
	}
	return out
}
