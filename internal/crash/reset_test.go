package crash_test

import (
	"fmt"
	"math"
	"testing"

	"adcc/internal/cache"
	"adcc/internal/crash"
	"adcc/internal/mem"
	"adcc/internal/nvm"
)

// resetConfigs are the platforms Reset moves between: both systems, an
// eADR-priced LLC, CLWB persistence, and a CPU override. Reset keeps the
// LLC geometry and the DRAM cache size, so all of them share the
// campaign's LLC geometry and the default DRAM cache.
func resetConfigs() []crash.MachineConfig {
	llc := cache.DefaultConfig()
	llc.SizeBytes = 1 << 20
	eadr := llc
	eadr.FlushFree = true
	return []crash.MachineConfig{
		{System: crash.NVMOnly, Cache: llc},
		{System: crash.Hetero, Cache: llc},
		{System: crash.NVMOnly, Cache: eadr},
		{System: crash.Hetero, Cache: eadr},
		{System: crash.Hetero, Cache: llc, Flush: crash.CLWB},
		{System: crash.NVMOnly, Cache: llc, OpNS: 0.4},
	}
}

// machineView is everything a run shows of a machine: the clock, the
// CPU carry, the op count, the LLC counters and canonical state, the
// page tier, every region's base and image, and the stream ties.
func machineView(s *snapMachine) string {
	m := s.m
	var tier []uint64
	if h, ok := m.Mem.(*nvm.Hetero); ok {
		tier = h.AppendLRU(nil)
	}
	var images []uint64
	for _, r := range m.Heap.Regions() {
		images = append(images, uint64(r.Base()))
		for i := 0; i < r.Len(); i++ {
			w, _ := m.Heap.ImageWord(r.Addr(i))
			images = append(images, w)
		}
	}
	return fmt.Sprintf("clock=%d carry=%v ops=%d llc=%+v lru=%v pf=%v ties=%d tier=%v images=%x",
		m.Clock.Now(), m.CPU.Remainder(), m.Heap.Ops(), m.LLC.Stats(), m.LLC.AppendLRU(nil),
		m.LLC.AppendPrefetch(nil), m.LLC.StreamTies(), tier, mem.HashWord(0, hashAll(images)))
}

func hashAll(ws []uint64) uint64 {
	h := uint64(14695981039346656037)
	for _, w := range ws {
		h = mem.HashWord(h, w)
	}
	return h
}

// workout runs a script with a crash and a snapshot restore in it.
func workout(s *snapMachine, seed int64) {
	s.m.LLC.CountStreamTies(true)
	s.run(seed, 250)
	st := s.m.CrashSnapshot(nil)
	s.m.Crash()
	s.run(seed+1, 150)
	s.m.RestoreCrash(st)
	s.run(seed+2, 150)
}

// TestResetMatchesNewMachine: a machine dirtied under one platform, its
// carriers registered, its caches and page tier warm, Reset to another
// platform, runs a workload exactly as a new machine of that platform
// does: same clock, LLC counters, canonical LLC and prefetcher, page
// tier, images and region addresses.
func TestResetMatchesNewMachine(t *testing.T) {
	configs := resetConfigs()
	for i, cfg := range configs {
		for j, dirty := range configs {
			seed := int64(10*i + j)
			used := buildSnapOn(crash.NewMachine(dirty), seed, true)
			workout(used, seed+100)
			used.m.Reset(cfg)
			got := buildSnapOn(used.m, seed+7, true)
			workout(got, seed+200)
			want := buildSnapOn(crash.NewMachine(cfg), seed+7, true)
			workout(want, seed+200)
			if g, w := machineView(got), machineView(want); g != w {
				t.Errorf("%+v after %+v:\nReset machine %s\nnew machine   %s", cfg, dirty, g, w)
			}
			if len(got.m.Aux()) != 1 {
				t.Errorf("Reset kept %d aux carriers; the rebuilt workload registered 1", len(got.m.Aux()))
			}
		}
	}
}

// TestResetInvalidatesOldState: after a Reset the old region handles
// panic, and a capture from before it is neither shared nor proven equal
// by version, so a post-Reset capture chained to it still holds the new
// images.
func TestResetInvalidatesOldState(t *testing.T) {
	s := buildSnapMachine(crash.NVMOnly, 3, true)
	s.run(1, 200)
	s.m.Crash()
	before := s.m.CrashSnapshot(nil)
	old := s.f[0]
	s.m.Reset(crash.MachineConfig{System: crash.NVMOnly})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a region handle from before Reset still works")
			}
		}()
		old.At(0)
	}()
	n := buildSnapOn(s.m, 3, true)
	n.f[0].Set(0, math.Pi)
	n.m.FlushRegion(n.f[0])
	after := n.m.CrashSnapshot(before)
	if after.Equal(before) {
		t.Error("a capture after Reset equals one before it despite different images")
	}
	ref := buildSnapMachine(crash.NVMOnly, 3, true)
	ref.f[0].Set(0, math.Pi)
	ref.m.FlushRegion(ref.f[0])
	if !after.Equal(ref.m.CrashSnapshot(nil)) {
		t.Error("a capture after Reset chained to one before it lost the new images")
	}
}

// TestMachineResetAllocatesNothing: once a machine has built both memory
// systems, a Reset to either allocates nothing for the LLC, the page
// tier or the heap.
func TestMachineResetAllocatesNothing(t *testing.T) {
	configs := resetConfigs()[:2]
	m := crash.NewMachine(configs[1])
	for _, cfg := range configs {
		m.Reset(cfg)
		workout(buildSnapOn(m, 1, true), 2)
	}
	if n := testing.AllocsPerRun(20, func() {
		for _, cfg := range configs {
			m.Reset(cfg)
		}
	}); n != 0 {
		t.Errorf("Machine.Reset: %v allocs, want 0", n)
	}
	// Re-preparing the same regions allocates their handles only.
	regions := len(buildSnapOn(m, 1, true).m.Heap.Regions())
	if n := testing.AllocsPerRun(20, func() {
		m.Reset(configs[0])
		for i := 0; i < regions; i++ {
			m.Heap.AllocF64("r", 1000)
		}
	}); n != float64(regions) {
		t.Errorf("Reset plus %d region allocations: %v allocs, want %d (the handles)", regions, n, regions)
	}
}
