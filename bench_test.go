// Package adcc_test hosts the benchmark harness: one benchmark per table
// and figure of the paper's evaluation (each regenerates the experiment
// through internal/harness), plus micro-benchmarks of the substrate
// kernels.
//
// The per-figure benchmarks run at a reduced scale by default so that
// `go test -bench=.` finishes in minutes; set ADCC_BENCH_SCALE=1.0 to
// benchmark the full paper-shape experiments. The authoritative
// paper-vs-measured numbers live in EXPERIMENTS.md, produced by
// `go run ./cmd/adccbench -experiment all`.
package adcc_test

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"

	"adcc/internal/bench"
	"adcc/internal/cache"
	"adcc/internal/core"
	"adcc/internal/crash"
	"adcc/internal/dense"
	"adcc/internal/harness"
	"adcc/internal/mc"
	"adcc/internal/mem"
	"adcc/internal/sparse"
)

// benchScaleWarn makes the malformed-ADCC_BENCH_SCALE warning fire once
// per test binary rather than once per benchmark.
var benchScaleWarn sync.Once

// benchScale reads ADCC_BENCH_SCALE (documented in README.md). A value
// that does not parse as a positive float is reported on stderr — not
// silently ignored — and the default reduced scale is used.
func benchScale() float64 {
	if s := os.Getenv("ADCC_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
		benchScaleWarn.Do(func() {
			fmt.Fprintf(os.Stderr,
				"bench: ignoring malformed ADCC_BENCH_SCALE=%q (want a positive float, e.g. 0.05); using default 0.05\n", s)
		})
	}
	return 0.05
}

// benchExperiment runs one harness experiment per b.N iteration and
// reports the simulated result table size as a sanity signal.
func benchExperiment(b *testing.B, name string) {
	b.Helper()
	e, ok := harness.ByName(name)
	if !ok {
		b.Fatalf("unknown experiment %s", name)
	}
	opts := harness.Options{Scale: benchScale()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err := e.Run(context.Background(), opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

// One benchmark per paper table/figure.

func BenchmarkFig3CGRecomputation(b *testing.B) { benchExperiment(b, "fig3") }
func BenchmarkFig4CGRuntime(b *testing.B)       { benchExperiment(b, "fig4") }
func BenchmarkFig7MMRecomputation(b *testing.B) { benchExperiment(b, "fig7") }
func BenchmarkFig8MMRuntime(b *testing.B)       { benchExperiment(b, "fig8") }
func BenchmarkFig10MCNaive(b *testing.B)        { benchExperiment(b, "fig10") }
func BenchmarkFig12MCSelective(b *testing.B)    { benchExperiment(b, "fig12") }
func BenchmarkFig13MCRuntime(b *testing.B)      { benchExperiment(b, "fig13") }
func BenchmarkAblationCGCache(b *testing.B)     { benchExperiment(b, "cg-cache") }
func BenchmarkAblationMCFlush(b *testing.B)     { benchExperiment(b, "mc-flush") }
func BenchmarkAblationMMRank(b *testing.B)      { benchExperiment(b, "mm-k") }

// benchExperimentParallel is benchExperiment with the harness's bounded
// worker pool engaged, for measuring the fan-out win on multi-core
// hosts (results are byte-identical to the serial run either way).
func benchExperimentParallel(b *testing.B, name string, workers int) {
	b.Helper()
	e, ok := harness.ByName(name)
	if !ok {
		b.Fatalf("unknown experiment %s", name)
	}
	opts := harness.Options{Scale: benchScale(), Parallel: workers}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err := e.Run(context.Background(), opts)
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatal("empty result")
		}
	}
}

func BenchmarkFig4Parallel4(b *testing.B)    { benchExperimentParallel(b, "fig4", 4) }
func BenchmarkFig8Parallel4(b *testing.B)    { benchExperimentParallel(b, "fig8", 4) }
func BenchmarkSummaryParallel4(b *testing.B) { benchExperimentParallel(b, "summary", 4) }

// --- substrate micro-benchmarks ---

func newBenchMachine() *crash.Machine {
	return crash.NewMachine(crash.MachineConfig{
		System: crash.NVMOnly,
		Cache:  cache.DefaultConfig(),
	})
}

// BenchmarkKernels drives each kernel of the shared suite b.N times —
// the very op `adccbench -bench` probes for its deterministic sim_*
// rows and CI gates through cmd/benchdiff — so `go test -bench` and the
// JSON pipeline can never drift apart.
func BenchmarkKernels(b *testing.B) {
	for _, k := range bench.Kernels() {
		b.Run(k.Name, func(b *testing.B) {
			_, op := k.Setup()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op(i)
			}
		})
	}
}

// BenchmarkSpMVNative measures the un-instrumented reference SpMV the
// simulated kernel ("sparse/spmv") is judged against. It touches no
// simulated machine, so it has no row in the bench suite.
func BenchmarkSpMVNative(b *testing.B) {
	a := sparse.GenSPD(20000, 11, 1)
	x := make([]float64, a.N)
	y := make([]float64, a.N)
	for i := range x {
		x[i] = 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sparse.SpMV(y, a, x)
	}
}

// BenchmarkMCSample measures the pure sampling path of one MC lookup
// (no simulated memory traffic, so no row in the bench suite).
func BenchmarkMCSample(b *testing.B) {
	m := newBenchMachine()
	s := mc.New(m.Heap, m.CPU, mc.Config{Nuclides: 34, PointsPerNuclide: 1000, Lookups: 1 << 30, Seed: 42})
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		e, _, c := s.SampleLookup(int64(i))
		sink += e + c
	}
	_ = sink
}

// BenchmarkGemmAcc measures the simulated rank-k update kernel.
func BenchmarkGemmAcc(b *testing.B) {
	m := newBenchMachine()
	an := dense.Random(256, 256, 1)
	bn := dense.Random(256, 256, 2)
	A := dense.UploadSim(m.Heap, "A", an)
	B := dense.UploadSim(m.Heap, "B", bn)
	C := dense.NewSim(m.Heap, "C", 256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dense.GemmAcc(m.CPU, C, A, B, 0, 64)
	}
}

// BenchmarkCGSolve measures a five-iteration extended-CG solve end to
// end, including machine construction (the dominant cost is the
// simulated SpMV traffic).
func BenchmarkCGSolve(b *testing.B) {
	a := sparse.GenSPD(10000, 11, 1)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		m := newBenchMachine()
		cg := core.NewCG(m, nil, a, core.CGOptions{MaxIter: 5})
		cg.Run(1)
	}
}

// BenchmarkCGRecoveryDetect measures the invariant-based detection walk.
func BenchmarkCGRecoveryDetect(b *testing.B) {
	a := sparse.GenSPD(10000, 11, 1)
	m := crash.NewMachine(crash.MachineConfig{
		System: crash.NVMOnly,
		Cache: cache.Config{
			SizeBytes: 256 << 10, LineBytes: mem.LineSize, Assoc: 8,
			HitNS: 4, FlushChargesClean: true, PrefetchStreams: 16,
		},
	})
	em := crash.NewEmulator(m)
	cg := core.NewCG(m, em, a, core.CGOptions{MaxIter: 10})
	em.CrashAtTrigger(core.TriggerCGIterEnd, 10)
	em.Run(func() { cg.Run(1) })
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		_ = cg.Recover()
	}
}
