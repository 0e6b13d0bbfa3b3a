package pmem

import (
	"math"
	"testing"

	"adcc/internal/cache"
	"adcc/internal/crash"
)

func newTestMachine() *crash.Machine {
	return crash.NewMachine(crash.MachineConfig{
		System: crash.NVMOnly,
		Cache: cache.Config{
			SizeBytes: 16 * 64 * 2,
			LineBytes: 64,
			Assoc:     2,
			HitNS:     1,
		},
	})
}

func TestCommitMakesDurable(t *testing.T) {
	m := newTestMachine()
	p := NewPool(m, 1024)
	r := m.Heap.AllocF64("data", 32)
	p.RegisterF64(r)
	for i := 0; i < 32; i++ {
		r.Set(i, 1.0)
	}
	m.LLC.WritebackAll()

	tx := p.Begin()
	for i := 0; i < 32; i++ {
		tx.SetF64(r, i, 2.0)
	}
	tx.Commit()

	// Everything must be durable: image equals live.
	for i := 0; i < 32; i++ {
		if r.Image()[i] != 2.0 {
			t.Fatalf("element %d not durable after commit: %v", i, r.Image()[i])
		}
	}
	if p.LogEntries() != 0 {
		t.Fatalf("log not truncated: %d entries", p.LogEntries())
	}
}

func TestCrashMidTxRollsBack(t *testing.T) {
	m := newTestMachine()
	e := crash.NewEmulator(m)
	p := NewPool(m, 1024)
	r := m.Heap.AllocF64("data", 32)
	p.RegisterF64(r)
	for i := 0; i < 32; i++ {
		r.Set(i, float64(i))
	}
	m.LLC.WritebackAll()

	crashed := e.Run(func() {
		tx := p.Begin()
		for i := 0; i < 32; i++ {
			tx.SetF64(r, i, -1.0)
		}
		crash.InjectCrashNow()
	})
	if !crashed {
		t.Fatal("expected crash")
	}
	rolledBack, applied := p.Recover()
	if !rolledBack || applied == 0 {
		t.Fatalf("Recover: rolledBack=%v applied=%d", rolledBack, applied)
	}
	for i := 0; i < 32; i++ {
		if got := r.Live()[i]; got != float64(i) {
			t.Fatalf("element %d = %v after rollback, want %v", i, got, float64(i))
		}
	}
}

func TestCrashAfterCommitNeedsNoRollback(t *testing.T) {
	m := newTestMachine()
	e := crash.NewEmulator(m)
	p := NewPool(m, 1024)
	r := m.Heap.AllocF64("data", 16)
	p.RegisterF64(r)
	m.LLC.WritebackAll()

	e.Run(func() {
		tx := p.Begin()
		for i := 0; i < 16; i++ {
			tx.SetF64(r, i, 3.0)
		}
		tx.Commit()
		crash.InjectCrashNow()
	})
	rolledBack, _ := p.Recover()
	if rolledBack {
		t.Fatal("rollback after a committed transaction")
	}
	for i := 0; i < 16; i++ {
		if got := r.Live()[i]; got != 3.0 {
			t.Fatalf("committed value lost: element %d = %v", i, got)
		}
	}
}

func TestTornTransactionSequence(t *testing.T) {
	// Several committed transactions, then a crash mid-transaction:
	// recovery must land on the last committed state.
	m := newTestMachine()
	e := crash.NewEmulator(m)
	p := NewPool(m, 4096)
	r := m.Heap.AllocF64("data", 64)
	p.RegisterF64(r)
	m.LLC.WritebackAll()

	e.Run(func() {
		for round := 1; round <= 3; round++ {
			tx := p.Begin()
			for i := 0; i < 64; i++ {
				tx.SetF64(r, i, float64(round))
			}
			tx.Commit()
		}
		tx := p.Begin()
		for i := 0; i < 40; i++ {
			tx.SetF64(r, i, 99.0)
		}
		crash.InjectCrashNow()
	})
	p.Recover()
	for i := 0; i < 64; i++ {
		if got := r.Live()[i]; got != 3.0 {
			t.Fatalf("element %d = %v, want 3.0 (last committed)", i, got)
		}
	}
}

// TestI64Transactions: rollback returns int64 words bit for bit,
// including ones that read as NaN or -0 when taken for float64 — the
// undo log holds every region's old values as raw words.
func TestI64Transactions(t *testing.T) {
	m := newTestMachine()
	e := crash.NewEmulator(m)
	p := NewPool(m, 1024)
	r := m.Heap.AllocI64("counters", 8)
	p.Register(r)
	want := []int64{0, -10, -1, math.MinInt64, 0x7ff0000000000001, -40, -50, -60}
	for i, w := range want {
		r.Set(i, w)
	}
	m.LLC.WritebackAll()

	e.Run(func() {
		tx := p.Begin()
		for i := 0; i < 8; i++ {
			tx.SetI64(r, i, 7)
		}
		crash.InjectCrashNow()
	})
	p.Recover()
	for i, w := range want {
		if got := r.Live()[i]; got != w {
			t.Fatalf("counter %d = %#x after rollback, want %#x", i, got, w)
		}
	}
}

func TestSnapshotDeduplication(t *testing.T) {
	m := newTestMachine()
	p := NewPool(m, 1024)
	r := m.Heap.AllocF64("data", 8) // one line
	p.RegisterF64(r)
	tx := p.Begin()
	tx.SetF64(r, 0, 1)
	tx.SetF64(r, 1, 2)
	tx.SetF64(r, 7, 3)
	if p.LogEntries() != 1 {
		t.Fatalf("log entries = %d, want 1 (same line deduplicated)", p.LogEntries())
	}
	tx.Commit()
}

func TestSnapshotPreservesFirstValue(t *testing.T) {
	// Rollback must restore the value at transaction start, not an
	// intermediate value.
	m := newTestMachine()
	e := crash.NewEmulator(m)
	p := NewPool(m, 1024)
	r := m.Heap.AllocF64("data", 8)
	p.RegisterF64(r)
	r.Set(0, 100.0)
	m.LLC.WritebackAll()

	e.Run(func() {
		tx := p.Begin()
		tx.SetF64(r, 0, 1.0)
		tx.SetF64(r, 0, 2.0)
		tx.SetF64(r, 0, 3.0)
		crash.InjectCrashNow()
	})
	p.Recover()
	if got := r.Live()[0]; got != 100.0 {
		t.Fatalf("rollback landed on %v, want 100.0", got)
	}
}

func TestStoreRangeF64(t *testing.T) {
	m := newTestMachine()
	p := NewPool(m, 1024)
	r := m.Heap.AllocF64("data", 32)
	p.RegisterF64(r)
	tx := p.Begin()
	dst := tx.StoreRangeF64(r, 8, 16)
	for i := range dst {
		dst[i] = 5.0
	}
	tx.Commit()
	for i := 8; i < 24; i++ {
		if r.Image()[i] != 5.0 {
			t.Fatalf("range store not durable at %d", i)
		}
	}
}

func TestTransactionCostsAreCharged(t *testing.T) {
	m := newTestMachine()
	p := NewPool(m, 8192)
	r := m.Heap.AllocF64("data", 512)
	p.RegisterF64(r)
	m.LLC.WritebackAll()

	// Plain write pass.
	start := m.Clock.Now()
	for i := 0; i < 512; i++ {
		r.Set(i, 1.0)
	}
	plain := m.Clock.Now() - start

	// Transactional write pass.
	start = m.Clock.Now()
	tx := p.Begin()
	for i := 0; i < 512; i++ {
		tx.SetF64(r, i, 2.0)
	}
	tx.Commit()
	transactional := m.Clock.Now() - start

	if transactional < 3*plain {
		t.Fatalf("transactional pass (%d ns) should cost several times the plain pass (%d ns)",
			transactional, plain)
	}
}

func TestNestedTxPanics(t *testing.T) {
	m := newTestMachine()
	p := NewPool(m, 64)
	p.Begin()
	defer func() {
		if recover() == nil {
			t.Fatal("nested Begin did not panic")
		}
	}()
	p.Begin()
}

func TestUnregisteredRegionPanics(t *testing.T) {
	m := newTestMachine()
	p := NewPool(m, 64)
	r := m.Heap.AllocF64("rogue", 8)
	tx := p.Begin()
	defer func() {
		if recover() == nil {
			t.Fatal("unregistered region did not panic")
		}
	}()
	tx.SetF64(r, 0, 1)
}

func TestLogOverflowPanics(t *testing.T) {
	m := newTestMachine()
	p := NewPool(m, 8) // tiny log: one line worth
	r := m.Heap.AllocF64("data", 64)
	p.RegisterF64(r)
	tx := p.Begin()
	defer func() {
		if recover() == nil {
			t.Fatal("log overflow did not panic")
		}
	}()
	for i := 0; i < 64; i++ {
		tx.SetF64(r, i, 1)
	}
}
