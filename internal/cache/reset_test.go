package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"adcc/internal/mem"
	"adcc/internal/nvm"
	"adcc/internal/sim"
)

// countingSink counts writebacks and their bytes.
type countingSink struct{ n, bytes int }

func (s *countingSink) Writeback(_ mem.Addr, size int) { s.n++; s.bytes += size }

// script applies n random accesses, flushes and drains to c.
func script(c *Cache, rng *rand.Rand, n int) {
	lines := 3 * len(c.ways)
	for k := 0; k < n; k++ {
		a := mem.Addr(64 + 64*rng.Intn(lines))
		switch rng.Intn(12) {
		case 0, 1, 2, 3, 4:
			c.Load(a, 8+rng.Intn(200))
		case 5, 6, 7, 8:
			c.Store(a, 8+rng.Intn(200))
		case 9:
			c.Flush(a, 64)
		case 10:
			c.FlushOpt(a, 128)
		case 11:
			if rng.Intn(8) == 0 {
				c.WritebackAll()
			}
		}
	}
}

// observable is everything a cache shows: counters, clock, writebacks,
// canonical LRU and prefetcher, and the tie count.
func observable(c *Cache, clock *sim.Clock, sink *countingSink) string {
	return fmt.Sprintf("%+v clock=%d wb=%+v lru=%v pf=%v ties=%d dirty=%v",
		c.Stats(), clock.Now(), *sink, c.AppendLRU(nil), c.AppendPrefetch(nil), c.StreamTies(), c.DirtyLineAddrs())
}

// TestResetMatchesNew: a cache used under one configuration and memory
// system, then Reset to another of the same geometry, behaves on any script exactly like a
// new cache of the second configuration: same counters, clock,
// writebacks, canonical state and stream ties.
func TestResetMatchesNew(t *testing.T) {
	small := Config{SizeBytes: 64 << 10, LineBytes: 64, Assoc: 8, HitNS: 4, FlushChargesClean: true, PrefetchStreams: 4}
	eadr := small
	eadr.FlushFree = true
	configs := []Config{small, eadr}
	systems := []func() CostModel{
		func() CostModel { return nvm.NewUniform(nvm.DRAMLikeNVM()) },
		func() CostModel { h := nvm.NewHetero(1 << 20); h.SetTiered(0, 1<<30); return h },
	}
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		from, to := configs[rng.Intn(len(configs))], configs[rng.Intn(len(configs))]
		sysTo := systems[rng.Intn(len(systems))]

		clock, sink := &sim.Clock{}, &countingSink{}
		used := New(from, clock, systems[rng.Intn(len(systems))](), sink)
		used.CountStreamTies(rng.Intn(2) == 0)
		script(used, rng, rng.Intn(3000))
		used.Reset(to, sysTo())
		*clock, *sink = sim.Clock{}, countingSink{}

		freshClock, freshSink := &sim.Clock{}, &countingSink{}
		fresh := New(to, freshClock, sysTo(), freshSink)
		after := rng.Int63()
		script(used, rand.New(rand.NewSource(after)), 2000)
		script(fresh, rand.New(rand.NewSource(after)), 2000)
		if got, want := observable(used, clock, sink), observable(fresh, freshClock, freshSink); got != want {
			t.Fatalf("seed %d (%+v -> %+v): after Reset\n%s\nnew cache\n%s", seed, from, to, got, want)
		}
	}
}

// TestResetAllocatesNothing: Reset reuses the ways, the directory and
// the bitmaps.
func TestResetAllocatesNothing(t *testing.T) {
	c := New(DefaultConfig(), &sim.Clock{}, nvm.NewUniform(nvm.DRAMLikeNVM()), nil)
	sys := nvm.NewHetero(1 << 20)
	rng := rand.New(rand.NewSource(1))
	script(c, rng, 5000)
	dir := len(c.wayOf)
	if n := testing.AllocsPerRun(20, func() {
		script(c, rng, 200)
		c.Reset(DefaultConfig(), sys)
	}); n != 0 {
		t.Errorf("Reset: %v allocs, want 0", n)
	}
	if len(c.wayOf) < dir || slices.ContainsFunc(c.wayOf, func(e uint32) bool { return e != 0 }) {
		t.Error("Reset did not keep an empty directory")
	}
}

// TestResetKeepsGeometry: Reset to another size, line size,
// associativity or prefetch stream count panics.
func TestResetKeepsGeometry(t *testing.T) {
	for _, change := range []func(*Config){
		func(c *Config) { c.SizeBytes /= 2 },
		func(c *Config) { c.LineBytes *= 2 },
		func(c *Config) { c.Assoc /= 2 },
		func(c *Config) { c.PrefetchStreams /= 2 },
	} {
		cfg := DefaultConfig()
		c := New(cfg, &sim.Clock{}, nvm.NewUniform(nvm.DRAMLikeNVM()), nil)
		change(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Reset from %+v to %+v did not panic", DefaultConfig(), cfg)
				}
			}()
			c.Reset(cfg, nvm.NewUniform(nvm.DRAMLikeNVM()))
		}()
	}
}
