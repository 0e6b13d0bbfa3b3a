package crash

import (
	"testing"

	"adcc/internal/mem"
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
