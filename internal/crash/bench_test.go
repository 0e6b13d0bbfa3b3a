package crash

import (
	"testing"

	"adcc/internal/mem"
	"adcc/internal/sparse"
)

// benchMachine is a default-geometry machine (2 MB LLC, 32768 ways) in
// the state a campaign's recording run pauses in: a 1 MB region written
// and persisted, then every sixteenth line re-dirtied in half its words,
// so 1024 lines are dirty over a mostly persisted image.
func benchMachine() (*Machine, *mem.F64) {
	m := NewMachine(MachineConfig{System: NVMOnly})
	r := m.Heap.AllocF64("data", 1<<17)
	m.Heap.AllocI64("tail", 13)
	for i := 0; i < r.Len(); i++ {
		r.Set(i, float64(i))
	}
	m.FlushRegion(r)
	for i := 0; i < r.Len(); i += 8 * 16 {
		for k := 0; k < 8; k += 2 {
			r.Set(i+k, float64(-i-k-1))
		}
	}
	return m, r
}

var benchOverlay []FaultWrite

// BenchmarkFaultOverlay times the overlay of the three dirty-line
// models at a new point seed per call, as a fault cell computes it at
// every crash point.
func BenchmarkFaultOverlay(b *testing.B) {
	for _, f := range []FaultModel{{Kind: TornLine, Seed: 1}, {Kind: ReorderWB, Seed: 1}, {Kind: EADR}} {
		b.Run(f.Kind.String(), func(b *testing.B) {
			m, _ := benchMachine()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ov, err := m.FaultOverlay(f, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				benchOverlay = ov
			}
		})
	}
}

// BenchmarkCrashSnapshotFault times a whole faulted capture between two
// crash points that persisted one line: overlay, copy-on-write image
// snapshot of the touched region, hashing.
func BenchmarkCrashSnapshotFault(b *testing.B) {
	m, r := benchMachine()
	f := FaultModel{Kind: TornLine, Seed: 1}
	var prev *CrashState
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := 8 * (1 + 16*(i%1024)) // a clean line
		r.Set(at, float64(i))
		m.Persist(r.Addr(at), 8)
		st, err := m.CrashSnapshotFault(prev, f, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		prev = st
	}
}

var benchSum float64

// BenchmarkSpMVSim times one cache-simulated SpMV of the campaign's cg
// matrix (n=1200, ~9 nonzeros a row; x resident in the LLC), with the
// heap counting but no emulator running, and under a disarmed
// Emulator.Run, as a campaign's resume executes it.
func BenchmarkSpMVSim(b *testing.B) {
	csr := sparse.GenSPD(1200, 9, 11)
	for _, run := range []string{"emulator-off", "disarmed-run"} {
		b.Run(run, func(b *testing.B) {
			m := NewMachine(MachineConfig{System: NVMOnly})
			e := NewEmulator(m)
			a := sparse.NewSimCSR(m.Heap, csr, "A")
			x := m.Heap.AllocF64("x", csr.N)
			y := m.Heap.AllocF64("y", csr.N)
			spmv := func() { a.SpMV(m.CPU, y, 0, x, 0) }
			if run == "disarmed-run" {
				spmv = func() { e.Run(func() { a.SpMV(m.CPU, y, 0, x, 0) }) }
			}
			spmv()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				spmv()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*csr.NNZ()), "ns/nnz")
		})
	}
}

// BenchmarkCountedLoad times one 8-byte At — count, op-stop compare and
// LLC hit — under a running, disarmed emulator.
func BenchmarkCountedLoad(b *testing.B) {
	m := NewMachine(MachineConfig{System: NVMOnly})
	e := NewEmulator(m)
	r := m.Heap.AllocF64("hot", 1024)
	for i := 0; i < r.Len(); i++ {
		_ = r.At(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run(func() {
		for i := 0; i < b.N; i++ {
			benchSum += r.At(i & 1023)
		}
	})
	b.StopTimer()
	if e.OpCount() != int64(b.N) {
		b.Fatalf("counted %d ops in %d loads", e.OpCount(), b.N)
	}
}
