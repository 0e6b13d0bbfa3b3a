package crash

import (
	"testing"

	"adcc/internal/cache"
	"adcc/internal/mem"
	"adcc/internal/sim"
	"adcc/internal/sparse"
)

// spmvAt is SimCSR.SpMV with one x.At per nonzero instead of a gather:
// the twin TestStopInsideGather holds the gather to.
func spmvAt(a *sparse.SimCSR, cpu *sim.CPU, dst *mem.F64, x *mem.F64) {
	for i := 0; i < a.N; i++ {
		rp := a.RowPtr.LoadRange(i, 2)
		start, end := int(rp[0]), int(rp[1])
		nnz := end - start
		cols := a.Col.LoadRange(start, nnz)
		vals := a.Val.LoadRange(start, nnz)
		sum := 0.0
		for k, c := range cols {
			sum += vals[k] * x.At(int(c))
		}
		dst.Set(i, sum)
		cpu.Compute(int64(2 * nnz))
	}
}

// spmvMachine builds a tiny-cache machine running y = A*x, then x = A*y,
// through SimCSR.SpMV (gather) or its At-loop twin.
func spmvMachine(gather bool) (*Machine, *Emulator, func()) {
	m := smallMachine(NVMOnly)
	e := NewEmulator(m)
	csr := sparse.GenSPD(24, 6, 3)
	a := sparse.NewSimCSR(m.Heap, csr, "A")
	x := m.Heap.AllocF64("x", csr.N)
	y := m.Heap.AllocF64("y", csr.N)
	for i := range x.Live() {
		x.Live()[i] = float64(i%7) - 2.5
	}
	m.Heap.SyncAllImages()
	spmv := a.SpMV
	if !gather {
		spmv = func(cpu *sim.CPU, dst *mem.F64, _ int, x *mem.F64, _ int) { spmvAt(a, cpu, dst, x) }
	}
	return m, e, func() {
		spmv(m.CPU, y, 0, x, 0)
		spmv(m.CPU, x, 0, y, 0)
	}
}

// TestStopInsideGather puts a Record point and a CrashAtOp at every op
// of two SpMVs, so at every offset inside every row's gather, under the
// torn-line model (its overlay reads the dirty lines at the crash
// instant). The capture op counts and states, and the crashed machine —
// op counts, clock, cache counters, post-crash state — must equal the
// At-loop twin's.
func TestStopInsideGather(t *testing.T) {
	torn := FaultModel{Kind: TornLine, Seed: 5}
	_, pe, prun := spmvMachine(true)
	total := pe.Profile(prun).Ops
	if _, te, trun := spmvMachine(false); te.Profile(trun).Ops != total {
		t.Fatalf("the twins count %d and %d ops", total, te.Profile(trun).Ops)
	}
	points := make([]CrashPoint, total)
	for i := range points {
		points[i] = CrashPoint{Op: int64(i + 1)}
	}
	record := func(gather bool) ([]int64, []*CrashState) {
		m, e, run := spmvMachine(gather)
		ops := make([]int64, total)
		states := make([]*CrashState, total)
		var prev *CrashState
		e.Record(run, points, func(pi int) {
			ops[pi] = e.OpCount()
			st, err := m.CrashSnapshotFault(prev, torn, e.OpCount())
			if err != nil {
				t.Fatal(err)
			}
			states[pi], prev = st, st
		})
		return ops, states
	}
	gOps, gStates := record(true)
	aOps, aStates := record(false)
	for pi := range points {
		if gOps[pi] != aOps[pi] || gOps[pi] != points[pi].Op || !gStates[pi].Equal(aStates[pi]) {
			t.Fatalf("capture at op %d: gather at op %d, At loop at op %d, states equal: %v",
				points[pi].Op, gOps[pi], aOps[pi], gStates[pi].Equal(aStates[pi]))
		}
	}

	for op := int64(1); op <= total; op++ {
		var got [2]struct {
			crashed       bool
			crashOps, ops int64
			now           int64
			stats         cache.Stats
			state         *CrashState
		}
		for i, gather := range []bool{true, false} {
			m, e, run := spmvMachine(gather)
			if err := e.SetFault(torn); err != nil {
				t.Fatal(err)
			}
			e.CrashAtOp(op)
			g := &got[i]
			g.crashed = e.Run(run)
			g.crashOps, g.ops, g.now, g.stats = e.CrashOps(), e.OpCount(), m.Clock.Now(), m.LLC.Stats()
			g.state = m.CrashSnapshot(nil)
		}
		g, a := got[0], got[1]
		if !g.crashed || g.crashOps != op || g.crashed != a.crashed || g.crashOps != a.crashOps ||
			g.ops != a.ops || g.now != a.now || g.stats != a.stats || !g.state.Equal(a.state) {
			t.Fatalf("crash at op %d: gather %+v\nAt loop %+v", op, g, a)
		}
	}
}

// TestRunClearsStopOnForeignPanic: a Run that ends in a panic of its own
// workload, or in a crash, leaves no stop armed on the heap, so a count
// that passes the old stop again outside a Run fires nothing.
func TestRunClearsStopOnForeignPanic(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(e *Emulator, r *mem.F64)
	}{
		{"foreign panic before the crash op", func(e *Emulator, r *mem.F64) {
			e.CrashAtOp(4)
			func() {
				defer func() {
					if p := recover(); p != "boom" {
						t.Fatalf("recovered %v, want boom", p)
					}
				}()
				e.Run(func() { r.Set(0, 1); panic("boom") })
			}()
		}},
		{"foreign panic before a recorded point", func(e *Emulator, r *mem.F64) {
			e.CrashAtOp(4) // suspended by Record, armed again after it
			func() {
				defer func() { recover() }()
				e.Record(func() { r.Set(0, 1); panic("boom") }, []CrashPoint{{Op: 4}}, func(int) {
					t.Error("the recorded point was captured")
				})
			}()
		}},
		{"crash", func(e *Emulator, r *mem.F64) {
			e.CrashAtOp(2)
			if !e.Run(func() { r.Set(0, 1); r.Set(1, 1); r.Set(2, 1) }) {
				t.Fatal("the armed crash did not fire")
			}
		}},
	} {
		m := smallMachine(NVMOnly)
		e := NewEmulator(m)
		r := m.Heap.AllocF64("v", 8)
		tc.run(e, r)
		m.Heap.ResetOps()
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("%s: a stale stop fired outside the Run: %v", tc.name, p)
				}
			}()
			for i := 0; i < 8; i++ {
				r.Set(i, 2)
			}
		}()
	}
}

// TestOpCountFrozenAfterRun: after a Run — completed or crashed —
// OpCount and CrashOps report that Run, however much recovery and
// verification touch the heap afterwards.
func TestOpCountFrozenAfterRun(t *testing.T) {
	m := smallMachine(NVMOnly)
	e := NewEmulator(m)
	r := m.Heap.AllocF64("v", 8)
	e.Run(func() { r.Set(0, 1); _ = r.At(0); r.LoadRange(0, 8) })
	r.Set(1, 1) // a Verify
	_ = r.At(1)
	if e.OpCount() != 3 || m.Heap.Ops() != 5 {
		t.Fatalf("OpCount %d after a 3-op Run and 2 later ops (heap counted %d)", e.OpCount(), m.Heap.Ops())
	}

	e.CrashAtOp(2)
	if !e.Run(func() { r.Set(0, 1); r.Set(1, 1); r.Set(2, 1) }) {
		t.Fatal("the armed crash did not fire")
	}
	r.StoreRange(0, 8) // a Recover
	if e.OpCount() != 2 || e.CrashOps() != 2 {
		t.Fatalf("OpCount %d, CrashOps %d after a crash at op 2 and a later op", e.OpCount(), e.CrashOps())
	}
	e.Disarm()
	if p := e.Profile(func() { r.Set(0, 1) }); p.Ops != 1 {
		t.Fatalf("profiled %d ops of a 1-op run", p.Ops)
	}
}
