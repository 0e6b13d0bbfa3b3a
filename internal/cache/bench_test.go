package cache

import (
	"testing"

	"adcc/internal/mem"
	"adcc/internal/nvm"
	"adcc/internal/sim"
)

// benchCache is a default-geometry cache (32768 ways) with lines
// resident and every eighth of them dirty.
func benchCache(lines int) *Cache {
	c := New(DefaultConfig(), &sim.Clock{}, nvm.NewUniform(nvm.DRAMLikeNVM()), nil)
	fillBench(c, lines)
	return c
}

func fillBench(c *Cache, lines int) {
	for ln := 1; ln <= lines; ln++ {
		a := mem.Addr(ln * c.cfg.LineBytes)
		if ln%8 == 0 {
			c.Store(a, 8)
		} else {
			c.Load(a, 8)
		}
	}
}

var benchAddrs []mem.Addr

// BenchmarkDirtyLineAddrs times the enumeration a fault overlay starts
// from: 256 dirty lines among 2048 resident ones.
func BenchmarkDirtyLineAddrs(b *testing.B) {
	c := benchCache(2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchAddrs = c.AppendDirtyLineAddrs(benchAddrs[:0])
	}
	if len(benchAddrs) != 256 {
		b.Fatalf("%d dirty lines, want 256", len(benchAddrs))
	}
}

// BenchmarkDiscardAll times the crash of a cache a fork's recovery and
// resumption filled with 2048 lines, refill included (it is what makes
// the next discard non-trivial; about two thirds of the time).
func BenchmarkDiscardAll(b *testing.B) {
	c := benchCache(2048)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.DiscardAll()
		fillBench(c, 2048)
	}
}
