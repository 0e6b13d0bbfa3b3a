package ckpt

import (
	"math"
	"slices"
	"testing"

	"adcc/internal/cache"
	"adcc/internal/crash"
)

func newMachine(kind crash.SystemKind) *crash.Machine {
	return crash.NewMachine(crash.MachineConfig{
		System: kind,
		Cache: cache.Config{
			SizeBytes: 16 * 64 * 2,
			LineBytes: 64,
			Assoc:     2,
			HitNS:     1,
		},
	})
}

// TestCheckpointRestoreRoundTrip: a checkpoint, and an aux snapshot of
// it, return every region bit for bit, including int64 words that read
// as NaN or -0 when taken for float64.
func TestCheckpointRestoreRoundTrip(t *testing.T) {
	m := newMachine(crash.NVMOnly)
	c := NewNVM(m)
	v := m.Heap.AllocF64("v", 100)
	n := m.Heap.AllocI64("n", 4)
	for i := 0; i < 100; i++ {
		v.Set(i, float64(i)*1.5)
	}
	wantN := []int64{42, -1, math.MinInt64, 0x7ff0000000000001}
	copy(n.StoreRange(0, 4), wantN)
	c.Checkpoint(7, v, n)
	aux := c.SnapshotAux(nil)

	clobber := func() {
		for i := 0; i < 100; i++ {
			v.Set(i, -1)
		}
		copy(n.StoreRange(0, 4), []int64{-7, -7, -7, -7})
	}
	check := func(what string) {
		t.Helper()
		for i := 0; i < 100; i++ {
			if v.Live()[i] != float64(i)*1.5 {
				t.Fatalf("%s: v[%d] = %v after restore", what, i, v.Live()[i])
			}
			if v.Image()[i] != float64(i)*1.5 {
				t.Fatalf("%s: v image[%d] = %v after restore", what, i, v.Image()[i])
			}
		}
		if !slices.Equal(n.Live(), wantN) || !slices.Equal(n.Image(), wantN) {
			t.Fatalf("%s: n live %#x image %#x, want %#x", what, n.Live(), n.Image(), wantN)
		}
	}

	clobber()
	if tag := c.Restore(v, n); tag != 7 {
		t.Fatalf("tag = %d, want 7", tag)
	}
	check("restore")

	// A later checkpoint of the clobbered state, rolled back to aux.
	clobber()
	c.Checkpoint(8, v, n)
	if aux.EqualAux(c.SnapshotAux(nil)) {
		t.Fatal("aux snapshots of different checkpoints compare equal")
	}
	c.RestoreAux(aux)
	if !aux.EqualAux(c.SnapshotAux(nil)) {
		t.Fatal("aux snapshot differs from the checkpoint it restored")
	}
	if tag := c.Restore(v, n); tag != 7 {
		t.Fatalf("tag after RestoreAux = %d, want 7", tag)
	}
	check("RestoreAux then restore")
}

func TestCheckpointSurvivesCrash(t *testing.T) {
	m := newMachine(crash.NVMOnly)
	e := crash.NewEmulator(m)
	c := NewNVM(m)
	v := m.Heap.AllocF64("v", 64)

	crashed := e.Run(func() {
		for i := 0; i < 64; i++ {
			v.Set(i, 1.0)
		}
		c.Checkpoint(1, v)
		for i := 0; i < 64; i++ {
			v.Set(i, 2.0) // partially unpersisted at crash
		}
		crash.InjectCrashNow()
	})
	if !crashed {
		t.Fatal("expected crash")
	}
	c.Restore(v)
	for i := 0; i < 64; i++ {
		if v.Live()[i] != 1.0 {
			t.Fatalf("v[%d] = %v, want checkpointed 1.0", i, v.Live()[i])
		}
	}
}

func TestHDDMoreExpensiveThanNVM(t *testing.T) {
	costOf := func(mk func(*crash.Machine) *Checkpointer) int64 {
		m := newMachine(crash.NVMOnly)
		c := mk(m)
		v := m.Heap.AllocF64("v", 1<<16)
		start := m.Clock.Now()
		c.Checkpoint(1, v)
		return m.Clock.Now() - start
	}
	hdd := costOf(NewHDD)
	nvmc := costOf(NewNVM)
	if hdd < 4*nvmc {
		t.Fatalf("HDD checkpoint (%d ns) should dwarf NVM checkpoint (%d ns)", hdd, nvmc)
	}
}

func TestHeteroCheckpointMoreExpensiveThanNVMOnly(t *testing.T) {
	// The paper's Figure 4: NVM-only checkpoint has ~4% overhead while
	// NVM/DRAM checkpoint has ~44%, because the persistence domain on
	// the heterogeneous system is PCM-like (1/8 bandwidth).
	costOf := func(kind crash.SystemKind) int64 {
		m := newMachine(kind)
		c := NewNVM(m)
		v := m.Heap.AllocF64("v", 1<<16)
		start := m.Clock.Now()
		c.Checkpoint(1, v)
		return m.Clock.Now() - start
	}
	nvmOnly := costOf(crash.NVMOnly)
	hetero := costOf(crash.Hetero)
	if hetero <= 2*nvmOnly {
		t.Fatalf("hetero checkpoint (%d ns) should cost much more than NVM-only (%d ns)", hetero, nvmOnly)
	}
}

func TestRestoreWithoutCheckpointPanics(t *testing.T) {
	m := newMachine(crash.NVMOnly)
	c := NewNVM(m)
	v := m.Heap.AllocF64("v", 8)
	defer func() {
		if recover() == nil {
			t.Fatal("restore without checkpoint did not panic")
		}
	}()
	c.Restore(v)
}

func TestRestoreUnknownRegionPanics(t *testing.T) {
	m := newMachine(crash.NVMOnly)
	c := NewNVM(m)
	v := m.Heap.AllocF64("v", 8)
	w := m.Heap.AllocF64("w", 8)
	c.Checkpoint(1, v)
	defer func() {
		if recover() == nil {
			t.Fatal("restore of unknown region did not panic")
		}
	}()
	c.Restore(w)
}

func TestRepeatedCheckpointsOverwrite(t *testing.T) {
	m := newMachine(crash.NVMOnly)
	c := NewNVM(m)
	v := m.Heap.AllocF64("v", 16)
	for round := 1; round <= 3; round++ {
		for i := 0; i < 16; i++ {
			v.Set(i, float64(round))
		}
		c.Checkpoint(int64(round), v)
	}
	for i := 0; i < 16; i++ {
		v.Set(i, 0)
	}
	if tag := c.Restore(v); tag != 3 {
		t.Fatalf("tag = %d, want 3", tag)
	}
	if v.Live()[0] != 3.0 {
		t.Fatalf("restored %v, want 3.0", v.Live()[0])
	}
}

func TestValidAndTag(t *testing.T) {
	m := newMachine(crash.NVMOnly)
	c := NewNVM(m)
	if c.Valid() {
		t.Fatal("fresh checkpointer claims validity")
	}
	v := m.Heap.AllocF64("v", 8)
	c.Checkpoint(9, v)
	if !c.Valid() || c.Tag() != 9 {
		t.Fatalf("Valid=%v Tag=%d", c.Valid(), c.Tag())
	}
	if c.Name() == "" {
		t.Fatal("empty name")
	}
}

// TestCheckpointCrashMidSaveKeepsPreviousCheckpoint asserts the
// crash-atomicity of multi-region checkpoints: an injected crash firing
// inside a Checkpoint call (chargeSave streams the sources through the
// counting accessor, so op-point crashes can land there) must leave the
// previous checkpoint fully intact — same tag, all regions from the
// same iteration — never a mix of old and new snapshots.
func TestCheckpointCrashMidSaveKeepsPreviousCheckpoint(t *testing.T) {
	run := func(crashOp int64) (crashed bool, tag int64, a0, b0 float64) {
		m := newMachine(crash.NVMOnly)
		em := crash.NewEmulator(m)
		c := NewNVM(m)
		a := m.Heap.AllocF64("a", 64)
		b := m.Heap.AllocF64("b", 64)
		if crashOp > 0 {
			em.Arm(crash.CrashPoint{Op: crashOp})
		}
		crashed = em.Run(func() {
			for iter := int64(1); iter <= 3; iter++ {
				for i := 0; i < 64; i++ {
					a.Set(i, float64(100*iter))
					b.Set(i, float64(100*iter))
				}
				c.Checkpoint(iter, a, b)
			}
		})
		if !c.Valid() {
			t.Fatalf("crashOp=%d: no valid checkpoint", crashOp)
		}
		tag = c.Restore(a, b)
		return crashed, tag, a.Live()[0], b.Live()[0]
	}

	_, _, a0, _ := run(0)
	if a0 != 300 {
		t.Fatalf("crash-free restore a=%v, want 300", a0)
	}
	// Profile the crash-free op count, then sweep crash points across
	// the whole run (every 37th op covers points inside every
	// checkpoint's chargeSave streams).
	m := newMachine(crash.NVMOnly)
	em := crash.NewEmulator(m)
	c := NewNVM(m)
	a := m.Heap.AllocF64("a", 64)
	b := m.Heap.AllocF64("b", 64)
	prof := em.Profile(func() {
		for iter := int64(1); iter <= 3; iter++ {
			for i := 0; i < 64; i++ {
				a.Set(i, float64(100*iter))
				b.Set(i, float64(100*iter))
			}
			c.Checkpoint(iter, a, b)
		}
	})
	for op := int64(200); op <= prof.Ops; op += 37 {
		crashed, tag, av, bv := run(op)
		if !crashed {
			continue
		}
		want := float64(100 * tag)
		if av != want || bv != want {
			t.Fatalf("crash at op %d: restored tag %d but a=%v b=%v (mixed checkpoint)", op, tag, av, bv)
		}
	}
}
