package bench

import (
	"adcc/internal/cache"
	"adcc/internal/ckpt"
	"adcc/internal/crash"
	"adcc/internal/mc"
	"adcc/internal/pmem"
	"adcc/internal/sparse"
)

// simProbeOps is the default operation count of the deterministic
// probes. Sim metrics are totals over a fixed number of operations of
// the kernel, so they stay exact integers.
const simProbeOps = 4096

// Kernel is one named substrate hot path, defined once: RunKernels
// drives its op a fixed number of times and reads the simulated clock
// and flush counter, the root BenchmarkKernels drives the same op b.N
// times under the Go benchmark runner.
type Kernel struct {
	Name string
	// ProbeOps is how many times the deterministic probe calls the op.
	ProbeOps int
	// Setup builds a fresh machine with the kernel's data on it and
	// returns the operation; i is the call index, counting from 0.
	Setup func() (m *crash.Machine, op func(i int))
}

func kernelMachine() *crash.Machine {
	return crash.NewMachine(crash.MachineConfig{
		System: crash.NVMOnly,
		Cache:  cache.DefaultConfig(),
	})
}

// Kernels returns the kernel suite in stable name order. The names are
// part of the bench JSON schema surface: renaming one makes benchdiff
// report it missing against older baselines.
func Kernels() []Kernel {
	return []Kernel{
		{
			// Hit path of the LLC model: one simulated element load.
			Name: "cache/load", ProbeOps: simProbeOps,
			Setup: func() (*crash.Machine, func(int)) {
				m := kernelMachine()
				r := m.Heap.AllocF64("v", 1024)
				return m, func(i int) { _ = r.At(i & 1023) }
			},
		},
		{
			// Streaming stores with eviction and writeback pressure.
			Name: "cache/stream", ProbeOps: simProbeOps,
			Setup: func() (*crash.Machine, func(int)) {
				m := kernelMachine()
				r := m.Heap.AllocF64("v", 1<<20)
				return m, func(i int) { r.Set(i&(1<<20-1), float64(i)) }
			},
		},
		{
			// The cache-line flush model: store an element, persist its
			// line — the store/CLFLUSH pairing behind every selective
			// flush in the algorithm-directed schemes.
			Name: "cache/flush", ProbeOps: simProbeOps,
			Setup: func() (*crash.Machine, func(int)) {
				m := kernelMachine()
				r := m.Heap.AllocF64("v", 1024)
				return m, func(i int) {
					idx := i & 1023
					r.Set(idx, float64(i))
					m.Persist(r.Addr(idx), 8)
				}
			},
		},
		{
			// Simulated CSR SpMV, the CG hot kernel.
			Name: "sparse/spmv", ProbeOps: 1,
			Setup: func() (*crash.Machine, func(int)) {
				m := kernelMachine()
				a := sparse.GenSPD(20000, 11, 1)
				sa := sparse.NewSimCSR(m.Heap, a, "A")
				x := m.Heap.AllocF64("x", a.N)
				y := m.Heap.AllocF64("y", a.N)
				for i := 0; i < a.N; i++ {
					x.Set(i, 1)
				}
				return m, func(int) { sa.SpMV(m.CPU, y, 0, x, 0) }
			},
		},
		{
			// One full macroscopic cross-section lookup: the full
			// nuclide count with a reduced grid.
			Name: "mc/lookup", ProbeOps: simProbeOps,
			Setup: func() (*crash.Machine, func(int)) {
				m := kernelMachine()
				s := mc.New(m.Heap, m.CPU, mc.Config{Nuclides: 34, PointsPerNuclide: 1000, Lookups: 1 << 30, Seed: 42})
				return m, func(i int) { s.Lookup(int64(i)) }
			},
		},
		{
			// One single-line undo-log transaction, the PMEM-baseline
			// hot path.
			Name: "pmem/tx", ProbeOps: simProbeOps,
			Setup: func() (*crash.Machine, func(int)) {
				m := kernelMachine()
				p := pmem.NewPool(m, 1<<20)
				r := m.Heap.AllocF64("v", 1024)
				p.Register(r)
				return m, func(i int) {
					tx := p.Begin()
					tx.SetF64(r, i&1023, float64(i))
					tx.Commit()
				}
			},
		},
		{
			// Memory-based checkpoint of a 1 MB region.
			Name: "ckpt/nvm", ProbeOps: 64,
			Setup: func() (*crash.Machine, func(int)) {
				m := kernelMachine()
				c := ckpt.NewNVM(m)
				r := m.Heap.AllocF64("v", 128<<10)
				return m, func(i int) { c.Checkpoint(int64(i), r) }
			},
		},
	}
}

// RunKernels runs every kernel's deterministic probe — ProbeOps calls of
// its op on a fresh machine — and returns one Result per kernel: the
// simulated duration of the calls and the cache-line flushes the
// machine issued.
func RunKernels() []Result {
	kernels := Kernels()
	out := make([]Result, 0, len(kernels))
	for _, k := range kernels {
		m, op := k.Setup()
		start := m.Clock.Now()
		for i := 0; i < k.ProbeOps; i++ {
			op(i)
		}
		out = append(out, Result{Name: k.Name, SimNS: m.Clock.Since(start), SimFlushes: m.LLC.Stats().Flushes})
	}
	return out
}
