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

// BenchmarkAccessGather times the hit path of an indexed gather (SpMV's
// x.At): 8-byte loads at pseudo-random lines of a resident working set
// half the LLC.
func BenchmarkAccessGather(b *testing.B) {
	const lines = 1 << 14
	c := benchCache(lines)
	addrs := make([]mem.Addr, 1<<16)
	x := uint64(1)
	for i := range addrs {
		x = x*6364136223846793005 + 1442695040888963407
		addrs[i] = mem.Addr((1 + x>>33%lines) * 64)
	}
	c.ResetStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Load(addrs[i&(len(addrs)-1)], 8)
	}
	b.StopTimer()
	if st := c.Stats(); st.LineMisses != 0 || st.LineHits != int64(b.N) {
		b.Fatalf("gather over a resident set: %+v", st)
	}
	requireNoAllocs(b, func() { c.Load(addrs[0], 8) })
}

// BenchmarkAccessRange times the hit path of a streamed row (SimDot,
// GemmAcc): 512-element Load ranges, 64 lines each, walking a resident
// set.
func BenchmarkAccessRange(b *testing.B) {
	const lines, rowBytes = 1 << 14, 512 * 8
	c := benchCache(lines)
	rows := lines * 64 / rowBytes
	c.ResetStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Load(mem.Addr(64+(i%rows)*rowBytes), rowBytes)
	}
	b.StopTimer()
	if st := c.Stats(); st.LineMisses != 0 || st.LineHits != int64(b.N)*rowBytes/64 {
		b.Fatalf("range loads over a resident set: %+v", st)
	}
	requireNoAllocs(b, func() { c.Load(64, rowBytes) })
}

// BenchmarkAccessMissStream times the miss path: 8-byte stores, one per
// line, streaming over four times the LLC, so that past the first lap
// every access evicts and writes back a dirty line.
func BenchmarkAccessMissStream(b *testing.B) {
	c := New(DefaultConfig(), &sim.Clock{}, nvm.NewUniform(nvm.DRAMLikeNVM()), nil)
	lines := 4 * len(c.ways)
	for ln := 0; ln < lines; ln++ { // first lap: grow the directory, fill
		c.Store(mem.Addr(64+ln*64), 8)
	}
	c.ResetStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Store(mem.Addr(64+(i%lines)*64), 8)
	}
	b.StopTimer()
	if st := c.Stats(); st.LineHits != 0 || st.Writebacks != int64(b.N) {
		b.Fatalf("store stream over 4x the cache: %+v", st)
	}
}

// requireNoAllocs fails the benchmark when one call of the hit-path
// shape f allocates.
func requireNoAllocs(b *testing.B, f func()) {
	b.Helper()
	if n := testing.AllocsPerRun(100, f); n != 0 {
		b.Fatalf("%v allocs per hit-path access, want 0", n)
	}
}
