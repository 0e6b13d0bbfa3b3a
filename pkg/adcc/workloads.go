package adcc

import (
	"adcc/internal/core"
	"adcc/internal/dense"
	"adcc/internal/engine"
	"adcc/internal/kvlog"
	"adcc/internal/mc"
	"adcc/internal/sparse"
	"adcc/internal/stencil"
)

// This file re-exports the paper's three study workloads and the two
// extension families — the extended (algorithm-directed)
// implementations and their conventional-mechanism baselines — and the
// pure input generators the examples build their problems with.

// Workload is a crash-consistence study: a computation that can run
// from an iteration boundary, recover after a crash, and verify its
// result. Custom workloads implement it and register a WorkloadSpec on
// a Registry; Registry.Workload builds the built-in ones by name.
type Workload = engine.Workload

// Guard is the per-run binding of a scheme to a machine: the uniform
// iteration-protection hooks a workload loop drives.
type Guard = engine.Guard

// NewNativeGuard returns the no-op guard used by native and
// algorithm-directed schemes (custom Schemes without a conventional
// mechanism return it from NewGuard).
func NewNativeGuard() Guard { return engine.NewNativeGuard() }

// Conjugate gradient (paper §III-B).
type (
	// CG is the extended crash-consistent CG solver.
	CG = core.CG
	// CGOptions configures a CG solve.
	CGOptions = core.CGOptions
	// BaselineCG is the Figure 1 baseline solver driven through a
	// conventional scheme's Guard.
	BaselineCG = core.BaselineCG
)

// NewCG builds the extended crash-consistent CG solver on a machine
// (em may be nil when no crash will be injected).
func NewCG(m *Machine, em *Emulator, a *SparseMatrix, opts CGOptions) *CG {
	return core.NewCG(m, em, a, opts)
}

// NewBaselineCG builds the Figure 1 baseline solver under a
// conventional scheme (nil means native, no protection).
func NewBaselineCG(m *Machine, a *SparseMatrix, opts CGOptions, sc Scheme) *BaselineCG {
	return core.NewBaselineCG(m, a, opts, sc)
}

// ABFT matrix multiplication (paper §III-C).
type (
	// MM is the extended ABFT multiplication with checksummed temporal
	// matrices.
	MM = core.MM
	// MMOptions configures a multiplication.
	MMOptions = core.MMOptions
	// BaselineMM is the Figure 5 baseline multiplication.
	BaselineMM = core.BaselineMM
)

// NewMM builds the extended ABFT multiplication on a machine (em may be
// nil).
func NewMM(m *Machine, em *Emulator, opts MMOptions) *MM {
	return core.NewMM(m, em, opts)
}

// Monte-Carlo neutron-transport lookups (paper §III-D).
type (
	// MCSim is the XSBench-style cross-section lookup simulation.
	MCSim = mc.Sim
	// MCConfig sizes the lookup simulation.
	MCConfig = mc.Config
	// MCRunner drives the lookup loop under a consistency scheme.
	MCRunner = core.MCRunner
	// MCWorkload adapts the lookup loop to the Workload lifecycle.
	MCWorkload = core.MCWorkload
)

// MCNumTypes is the number of interaction types the simulation counts.
const MCNumTypes = mc.NumTypes

// NewMCSim allocates the cross-section grids on a machine's heap.
func NewMCSim(m *Machine, cfg MCConfig) *MCSim {
	return mc.New(m.Heap, m.CPU, cfg)
}

// NewMCRunner builds the lookup-loop runner under a scheme (em may be
// nil; a nil scheme means native).
func NewMCRunner(m *Machine, em *Emulator, s *MCSim, sc Scheme) *MCRunner {
	return core.NewMCRunner(m, em, s, sc)
}

// MCTinyConfig returns a CI-sized lookup configuration.
func MCTinyConfig() MCConfig { return mc.TinyConfig() }

// MCPercentages converts interaction counts to percentages of the
// lookup total.
func MCPercentages(c [MCNumTypes]int64, lookups int) [MCNumTypes]float64 {
	return mc.Percentages(c, lookups)
}

// Jacobi heat stencil (extension workload family).
type (
	// Heat is the extended algorithm-directed Jacobi relaxation with
	// plane history and invariant-based recovery.
	Heat = stencil.Heat
	// HeatOptions configures a relaxation.
	HeatOptions = stencil.Options
	// HeatRecovery reports what stencil recovery concluded.
	HeatRecovery = stencil.Recovery
	// BaselineHeat is the conventional ping-pong relaxation driven
	// through a conventional scheme's Guard.
	BaselineHeat = stencil.Baseline
)

// NewHeat builds the extended algorithm-directed relaxation on a
// machine (em may be nil when no crash will be injected).
func NewHeat(m *Machine, em *Emulator, opts HeatOptions) *Heat {
	return stencil.NewHeat(m, em, opts)
}

// NewBaselineHeat builds the ping-pong relaxation under a conventional
// scheme (nil means native, no protection).
func NewBaselineHeat(m *Machine, opts HeatOptions, sc Scheme) *BaselineHeat {
	return stencil.NewBaseline(m, opts, sc)
}

// HeatWant computes the native reference plane for the given options —
// the stencil family's verification oracle.
func HeatWant(opts HeatOptions) []float64 { return stencil.Want(opts) }

// HeatVerify compares a computed plane against the oracle.
func HeatVerify(got, want []float64) error { return stencil.VerifyGrid(got, want) }

// Persistent KV/log store (served-traffic extension family).
type (
	// KVLogStore is the extended algorithm-directed store: append-log
	// tail flushing, high-water mark, index rebuilt by idempotent log
	// replay on recovery.
	KVLogStore = kvlog.Store
	// KVLogOptions configures a request-stream run.
	KVLogOptions = kvlog.Options
	// KVLogRecovery reports what a log replay concluded.
	KVLogRecovery = kvlog.Recovery
	// BaselineKVLogStore is the same store driven through a
	// conventional scheme's Guard.
	BaselineKVLogStore = kvlog.Baseline
)

// NewKVLogStore builds the algorithm-directed store on a machine (em
// may be nil when no crash will be injected).
func NewKVLogStore(m *Machine, em *Emulator, opts KVLogOptions) *KVLogStore {
	return kvlog.NewStore(m, em, opts)
}

// NewBaselineKVLogStore builds the store under a conventional scheme
// (nil means native, no protection).
func NewBaselineKVLogStore(m *Machine, opts KVLogOptions, sc Scheme) *BaselineKVLogStore {
	return kvlog.NewBaseline(m, opts, sc)
}

// KVLogWant computes the final key-value state of the request stream —
// the family's verification oracle.
func KVLogWant(opts KVLogOptions) map[int64]int64 { return kvlog.Oracle(opts) }

// KVLogThroughput returns the simulated request rate (ops/sec) over
// recorded per-request latencies.
func KVLogThroughput(reqNS []int64) float64 { return kvlog.Throughput(reqNS) }

// KVLogPercentile returns the nearest-rank p-th percentile of a latency
// slice — the same semantics as the result store's distributions.
func KVLogPercentile(v []int64, p float64) int64 { return kvlog.Percentile(v, p) }

// Pure input generators (no simulation cost).
type (
	// SparseMatrix is a CSR sparse matrix.
	SparseMatrix = sparse.CSR
	// Matrix is a dense row-major matrix.
	Matrix = dense.Matrix
)

// GenSPD generates a random sparse symmetric positive-definite matrix
// of order n with about nnzRow nonzeros per row.
func GenSPD(n, nnzRow int, seed int64) *SparseMatrix {
	return sparse.GenSPD(n, nnzRow, seed)
}

// NewMatrix allocates a zero dense matrix.
func NewMatrix(rows, cols int) *Matrix { return dense.New(rows, cols) }

// RandomMatrix generates a seeded random dense matrix.
func RandomMatrix(rows, cols int, seed int64) *Matrix {
	return dense.Random(rows, cols, seed)
}

// MatMul computes c = a x b natively (the verification oracle of the
// MM study).
func MatMul(c, a, b *Matrix) { dense.Mul(c, a, b) }
