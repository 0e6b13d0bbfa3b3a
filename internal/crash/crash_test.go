package crash

import (
	"testing"

	"adcc/internal/cache"
)

func smallMachine(kind SystemKind) *Machine {
	return NewMachine(MachineConfig{
		System: kind,
		Cache: cache.Config{
			SizeBytes: 2 * 64 * 2, // 2 sets, 2 ways: tiny, evicts fast
			LineBytes: 64,
			Assoc:     2,
			HitNS:     1,
		},
	})
}

func TestMachineDefaults(t *testing.T) {
	m := NewMachine(MachineConfig{System: NVMOnly})
	if m.LLC.Config().SizeBytes != cache.DefaultConfig().SizeBytes {
		t.Error("default cache config not applied")
	}
	if m.System() != NVMOnly {
		t.Error("system kind mismatch")
	}
	if NVMOnly.String() != "NVM-only" || Hetero.String() != "NVM/DRAM" {
		t.Error("SystemKind names wrong")
	}
}

func TestRunNoCrash(t *testing.T) {
	m := smallMachine(NVMOnly)
	e := NewEmulator(m)
	r := m.Heap.AllocF64("v", 8)
	crashed := e.Run(func() {
		r.Set(0, 1.0)
	})
	if crashed {
		t.Fatal("unarmed run crashed")
	}
	if e.OpCount() != 1 {
		t.Fatalf("OpCount = %d, want 1", e.OpCount())
	}
	if got := r.Live()[0]; got != 1.0 {
		t.Fatalf("live value = %v", got)
	}
}

func TestCrashAtOpLosesCachedData(t *testing.T) {
	m := smallMachine(NVMOnly)
	e := NewEmulator(m)
	r := m.Heap.AllocF64("v", 8)
	e.CrashAtOp(2)
	crashed := e.Run(func() {
		r.Set(0, 42.0) // op 1: dirty in cache, never evicted
		r.Set(1, 43.0) // op 2: crash fires here
		t.Error("statement after crash executed")
	})
	if !crashed {
		t.Fatal("expected crash")
	}
	if e.CrashOps() != 2 {
		t.Fatalf("CrashOps = %d, want 2", e.CrashOps())
	}
	// The dirty line never reached NVM: after restart the value is gone.
	if got := r.Live()[0]; got != 0 {
		t.Fatalf("unpersisted value survived crash: %v", got)
	}
}

func TestCrashPreservesEvictedData(t *testing.T) {
	m := smallMachine(NVMOnly) // 2 sets x 2 ways, 64B lines
	e := NewEmulator(m)
	// 8 lines worth of data: streaming through forces evictions.
	r := m.Heap.AllocF64("v", 64)
	e.CrashAtTrigger("end", 1)
	crashed := e.Run(func() {
		for i := 0; i < 64; i++ {
			r.Set(i, float64(i+1))
		}
		e.Trigger("end")
	})
	if !crashed {
		t.Fatal("expected crash")
	}
	// With a 4-line cache, most early lines must have been evicted and
	// thus persisted.
	persisted := 0
	for i := 0; i < 64; i++ {
		if r.Live()[i] == float64(i+1) {
			persisted++
		}
	}
	if persisted == 0 {
		t.Fatal("no data persisted despite evictions")
	}
	if persisted == 64 {
		t.Fatal("everything persisted: cache had no effect")
	}
	// Early lines specifically should be persisted (LRU order).
	if r.Live()[0] != 1 {
		t.Error("earliest line expected to be evicted and persistent")
	}
}

func TestFlushSurvivesCrash(t *testing.T) {
	m := smallMachine(NVMOnly)
	e := NewEmulator(m)
	r := m.Heap.AllocF64("v", 8)
	e.CrashAtTrigger("pt", 1)
	e.Run(func() {
		r.Set(0, 7.0)
		m.FlushRegion(r)
		e.Trigger("pt")
	})
	if got := r.Live()[0]; got != 7.0 {
		t.Fatalf("flushed value lost across crash: %v", got)
	}
}

func TestTriggerOccurrenceCounting(t *testing.T) {
	m := smallMachine(NVMOnly)
	e := NewEmulator(m)
	count := 0
	e.CrashAtTrigger("iter", 3)
	crashed := e.Run(func() {
		for i := 0; i < 10; i++ {
			count++
			e.Trigger("iter")
		}
	})
	if !crashed || count != 3 {
		t.Fatalf("crashed=%v count=%d, want true/3", crashed, count)
	}
	if e.CrashTrigger() != "iter" {
		t.Fatalf("CrashTrigger = %q", e.CrashTrigger())
	}
}

// TestBoundaryHalt: a SetBoundary watch runs at every firing of its
// trigger, before an armed crash there, and a Halt from it ends the Run
// with no crash, the live data untouched and the op count frozen.
func TestBoundaryHalt(t *testing.T) {
	m := smallMachine(NVMOnly)
	e := NewEmulator(m)
	r := m.Heap.AllocF64("v", 8)
	e.CrashAtTrigger("iter", 3)
	seen := 0
	e.SetBoundary("iter", func() {
		if seen++; seen == 3 {
			e.Halt()
		}
	})
	crashed := e.Run(func() {
		for i := 0; i < 8; i++ {
			r.Set(i, float64(i+1))
			e.Trigger("other")
			e.Trigger("iter")
		}
	})
	if crashed || seen != 3 || e.OpCount() != 3 {
		t.Fatalf("crashed=%v seen=%d ops=%d, want false/3/3", crashed, seen, e.OpCount())
	}
	if got := r.Live()[2]; got != 3 {
		t.Fatalf("live word after Halt = %v, want 3", got)
	}
	e.SetBoundary("", nil)
	if e.Run(func() { e.Trigger("iter") }); seen != 3 {
		t.Fatal("a removed watch still ran")
	}
}

func TestUnmatchedTriggerIgnored(t *testing.T) {
	m := smallMachine(NVMOnly)
	e := NewEmulator(m)
	e.CrashAtTrigger("a", 1)
	crashed := e.Run(func() {
		e.Trigger("b")
	})
	if crashed {
		t.Fatal("mismatched trigger fired")
	}
}

func TestProfileThenCrashWorkflow(t *testing.T) {
	// The paper's second crash-point mode: profile total ops, pick a
	// fraction, re-run with CrashAtOp.
	build := func() (*Machine, *Emulator, func()) {
		m := smallMachine(NVMOnly)
		e := NewEmulator(m)
		r := m.Heap.AllocF64("v", 128)
		wl := func() {
			for i := 0; i < 128; i++ {
				r.Set(i, float64(i))
			}
		}
		return m, e, wl
	}
	_, e1, wl1 := build()
	if e1.Run(wl1) {
		t.Fatal("profiling run crashed")
	}
	total := e1.OpCount()
	if total != 128 {
		t.Fatalf("profiled ops = %d, want 128", total)
	}
	_, e2, wl2 := build()
	e2.CrashAtOp(total / 2)
	if !e2.Run(wl2) {
		t.Fatal("second run did not crash at half the ops")
	}
	if e2.CrashOps() != 64 {
		t.Fatalf("crash at op %d, want 64", e2.CrashOps())
	}
}

func TestRunRestoresAccessorAfterCrash(t *testing.T) {
	m := smallMachine(NVMOnly)
	e := NewEmulator(m)
	r := m.Heap.AllocF64("v", 8)
	e.CrashAtOp(1)
	e.Run(func() { r.Set(0, 1) })
	// Post-crash accesses must not count against the old emulator or
	// crash again.
	r.Set(0, 2)
	if r.Live()[0] != 2 {
		t.Fatal("post-crash store failed")
	}
}

func TestNonCrashPanicPropagates(t *testing.T) {
	m := smallMachine(NVMOnly)
	e := NewEmulator(m)
	defer func() {
		if r := recover(); r != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	e.Run(func() { panic("boom") })
}

func TestInjectCrashNow(t *testing.T) {
	m := smallMachine(NVMOnly)
	e := NewEmulator(m)
	r := m.Heap.AllocF64("v", 8)
	crashed := e.Run(func() {
		r.Set(0, 5)
		InjectCrashNow()
	})
	if !crashed {
		t.Fatal("InjectCrashNow did not crash")
	}
}

func TestHeteroMachineCrashResetsTier(t *testing.T) {
	m := smallMachine(Hetero)
	e := NewEmulator(m)
	r := m.Heap.AllocF64("v", 1024)
	m.TierRegion(r)
	e.CrashAtOp(500)
	crashed := e.Run(func() {
		for i := 0; i < 1024; i++ {
			r.Set(i, 1)
		}
	})
	if !crashed {
		t.Fatal("expected crash")
	}
	// No assertion beyond "did not panic": tier reset is exercised.
}

func TestChargeHelpers(t *testing.T) {
	m := smallMachine(Hetero)
	before := m.Clock.Now()
	m.ChargeNVMRead(4096)
	mid := m.Clock.Now()
	m.ChargeNVMWrite(4096)
	if mid <= before || m.Clock.Now() <= mid {
		t.Fatal("charge helpers did not advance the clock")
	}
}

func TestEmulatorRerunResetsCounts(t *testing.T) {
	m := smallMachine(NVMOnly)
	e := NewEmulator(m)
	r := m.Heap.AllocF64("v", 8)
	e.Run(func() { r.Set(0, 1); r.Set(1, 1) })
	first := e.OpCount()
	e.Run(func() { r.Set(0, 1) })
	if e.OpCount() != 1 || first != 2 {
		t.Fatalf("op counts not reset: first=%d second=%d", first, e.OpCount())
	}
}
