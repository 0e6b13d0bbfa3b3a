package cache

import (
	"math/rand"
	"slices"
	"testing"

	"adcc/internal/mem"
	"adcc/internal/sim"
)

// flatModel charges fixed read/write costs regardless of address.
type flatModel struct {
	read, write int64
}

func (m flatModel) ReadCost(mem.Addr, int) int64     { return m.read }
func (m flatModel) WriteCost(mem.Addr, int) int64    { return m.write }
func (m flatModel) ReadCostSeq(mem.Addr, int) int64  { return m.read / 10 }
func (m flatModel) WriteCostSeq(mem.Addr, int) int64 { return m.write / 10 }

// recSink records writebacks.
type recSink struct {
	wbs []mem.Addr
}

func (s *recSink) Writeback(a mem.Addr, size int) { s.wbs = append(s.wbs, a) }

func tinyCache(t *testing.T, clock *sim.Clock, sink WritebackSink) *Cache {
	t.Helper()
	cfg := Config{
		SizeBytes:         4 * 64 * 2, // 4 sets? no: size/(line*assoc) sets
		LineBytes:         64,
		Assoc:             2,
		HitNS:             1,
		FlushChargesClean: true,
	}
	// 512 bytes / (64*2) = 4 sets, 2 ways.
	return New(cfg, clock, flatModel{read: 100, write: 50}, sink)
}

func TestHitMissAccounting(t *testing.T) {
	clock := &sim.Clock{}
	c := tinyCache(t, clock, nil)
	c.Load(64, 8) // miss -> fill
	if got := clock.Now(); got != 100 {
		t.Fatalf("miss cost = %d, want 100", got)
	}
	c.Load(64, 8) // hit
	if got := clock.Now(); got != 101 {
		t.Fatalf("hit cost total = %d, want 101", got)
	}
	st := c.Stats()
	if st.LineHits != 1 || st.LineMisses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestMultiLineAccess(t *testing.T) {
	clock := &sim.Clock{}
	c := tinyCache(t, clock, nil)
	// 16 float64s starting at line boundary spans 2 lines.
	c.Load(64, 128)
	st := c.Stats()
	if st.LineMisses != 2 {
		t.Fatalf("misses = %d, want 2", st.LineMisses)
	}
	// Unaligned access spanning a boundary also touches 2 lines.
	c.Load(60, 8)
	st = c.Stats()
	if st.LineMisses+st.LineHits != 4 {
		t.Fatalf("line touches = %d, want 4", st.LineMisses+st.LineHits)
	}
}

func TestEvictionWritesBackDirty(t *testing.T) {
	clock := &sim.Clock{}
	sink := &recSink{}
	c := tinyCache(t, clock, sink) // 4 sets x 2 ways
	// Three lines mapping to the same set (stride = nsets*line = 256).
	c.Store(64, 8)
	c.Store(64+256, 8)
	c.Store(64+512, 8) // evicts LRU (addr 64), which is dirty
	if len(sink.wbs) != 1 || sink.wbs[0] != 64 {
		t.Fatalf("writebacks = %v, want [64]", sink.wbs)
	}
	if got := c.Stats().Writebacks; got != 1 {
		t.Fatalf("Writebacks stat = %d, want 1", got)
	}
}

func TestCleanEvictionNoWriteback(t *testing.T) {
	clock := &sim.Clock{}
	sink := &recSink{}
	c := tinyCache(t, clock, sink)
	c.Load(64, 8)
	c.Load(64+256, 8)
	c.Load(64+512, 8) // evicts clean line: no writeback
	if len(sink.wbs) != 0 {
		t.Fatalf("writebacks = %v, want none", sink.wbs)
	}
}

func TestLRUVictimSelection(t *testing.T) {
	clock := &sim.Clock{}
	c := tinyCache(t, clock, nil)
	c.Load(64, 8)     // A
	c.Load(64+256, 8) // B; set full
	c.Load(64, 8)     // touch A: B is now LRU
	c.Load(64+512, 8) // C evicts B
	if res, _ := c.Contains(64); !res {
		t.Fatal("A should still be resident")
	}
	if res, _ := c.Contains(64 + 256); res {
		t.Fatal("B should have been evicted")
	}
	if res, _ := c.Contains(64 + 512); !res {
		t.Fatal("C should be resident")
	}
}

// TestAppendLRUCanonical: two caches that reach the same per-set LRU
// order and dirty bits by different histories (other ways, other use
// ticks) have one canonical form, and go on to evict alike.
func TestAppendLRUCanonical(t *testing.T) {
	const a, b, c = 64, 64 + 256, 64 + 512 // lines 1, 5, 9: one set
	s1, s2 := &recSink{}, &recSink{}
	c1, c2 := tinyCache(t, &sim.Clock{}, s1), tinyCache(t, &sim.Clock{}, s2)
	c1.Load(a, 8)
	c1.Store(b, 8)
	c2.Store(b, 8)
	c2.Load(a, 8)
	c2.Store(b, 8)
	l1, l2 := c1.AppendLRU(nil), c2.AppendLRU(nil)
	if want := []uint64{1 << 1, 5<<1 | 1}; !slices.Equal(l1, want) || !slices.Equal(l2, want) {
		t.Fatalf("canonical forms %v and %v, want both %v", l1, l2, want)
	}
	c1.Store(c, 8)
	c2.Store(c, 8)
	c1.Store(a, 8)
	c2.Store(a, 8)
	if !slices.Equal(s1.wbs, s2.wbs) || len(s1.wbs) != 1 {
		t.Fatalf("writebacks %v and %v, want one, the same", s1.wbs, s2.wbs)
	}
}

func TestFlushDirtyLine(t *testing.T) {
	clock := &sim.Clock{}
	sink := &recSink{}
	c := tinyCache(t, clock, sink)
	c.Store(64, 8)
	before := clock.Now()
	c.Flush(64, 8)
	if len(sink.wbs) != 1 {
		t.Fatalf("flush did not write back dirty line")
	}
	if clock.Now()-before != 50 {
		t.Fatalf("flush cost = %d, want 50", clock.Now()-before)
	}
	if res, _ := c.Contains(64); res {
		t.Fatal("flushed line still resident")
	}
	st := c.Stats()
	if st.Flushes != 1 || st.FlushDirty != 1 {
		t.Fatalf("flush stats = %+v", st)
	}
}

func TestFlushAbsentLineCharged(t *testing.T) {
	clock := &sim.Clock{}
	c := tinyCache(t, clock, nil)
	c.Flush(1024, 8) // absent
	if clock.Now() != 50 {
		t.Fatalf("absent flush cost = %d, want 50 (paper: same order as dirty)", clock.Now())
	}
	// With charging disabled the flush is free.
	cfg := c.Config()
	cfg.FlushChargesClean = false
	c2 := New(cfg, clock, flatModel{read: 100, write: 50}, nil)
	before := clock.Now()
	c2.Flush(1024, 8)
	if clock.Now() != before {
		t.Fatal("absent flush charged despite FlushChargesClean=false")
	}
}

func TestFlushRangeMultipleLines(t *testing.T) {
	clock := &sim.Clock{}
	sink := &recSink{}
	c := tinyCache(t, clock, sink)
	c.Store(64, 8)
	c.Store(128, 8)
	c.Flush(64, 128) // two lines
	if len(sink.wbs) != 2 {
		t.Fatalf("flushed writebacks = %d, want 2", len(sink.wbs))
	}
}

func TestDiscardAllLosesDirtyData(t *testing.T) {
	clock := &sim.Clock{}
	sink := &recSink{}
	c := tinyCache(t, clock, sink)
	c.Store(64, 8)
	c.DiscardAll()
	if len(sink.wbs) != 0 {
		t.Fatal("DiscardAll performed a writeback")
	}
	if c.DirtyLines() != 0 {
		t.Fatal("DiscardAll left dirty lines")
	}
	if res, _ := c.Contains(64); res {
		t.Fatal("DiscardAll left a resident line")
	}
}

func TestWritebackAll(t *testing.T) {
	clock := &sim.Clock{}
	sink := &recSink{}
	c := tinyCache(t, clock, sink)
	c.Store(64, 8)
	c.Store(320, 8)
	c.WritebackAll()
	if len(sink.wbs) != 2 {
		t.Fatalf("WritebackAll wrote %d lines, want 2", len(sink.wbs))
	}
	if c.DirtyLines() != 0 {
		t.Fatal("dirty lines remain after WritebackAll")
	}
	// Lines stay resident and clean.
	if res, dirty := c.Contains(64); !res || dirty {
		t.Fatalf("line state after WritebackAll: resident=%v dirty=%v", res, dirty)
	}
}

func TestStoreMakesDirty(t *testing.T) {
	clock := &sim.Clock{}
	c := tinyCache(t, clock, nil)
	c.Load(64, 8)
	if _, dirty := c.Contains(64); dirty {
		t.Fatal("load marked line dirty")
	}
	c.Store(64, 8)
	if _, dirty := c.Contains(64); !dirty {
		t.Fatal("store did not mark line dirty")
	}
}

func TestZeroSizeAccess(t *testing.T) {
	clock := &sim.Clock{}
	c := tinyCache(t, clock, nil)
	c.Load(64, 0)
	c.Store(64, 0)
	c.Flush(64, 0)
	if clock.Now() != 0 {
		t.Fatal("zero-size operations advanced the clock")
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid config did not panic")
		}
	}()
	New(Config{SizeBytes: 100, LineBytes: 64, Assoc: 3}, &sim.Clock{}, flatModel{}, nil)
}

// TestCacheMemConsistency is the core integration property of the crash
// emulator: after any access sequence, for every element either the image
// matches the live value (persisted) or the element's line is dirty in
// cache (volatile). This is the invariant the whole paper rests on.
func TestCacheMemConsistency(t *testing.T) {
	clock := &sim.Clock{}
	h := mem.NewHeap(nil)
	cfg := Config{SizeBytes: 8 * 64 * 2, LineBytes: 64, Assoc: 2, HitNS: 1}
	c := New(cfg, clock, flatModel{read: 10, write: 5}, h)
	h.SetAccessor(c)

	r := h.AllocF64("v", 512)
	rng := rand.New(rand.NewSource(1))
	for op := 0; op < 20000; op++ {
		i := rng.Intn(r.Len())
		if rng.Intn(2) == 0 {
			r.Set(i, float64(op))
		} else {
			_ = r.At(i)
		}
	}
	live, img := r.Live(), r.Image()
	for i := range live {
		if live[i] == img[i] {
			continue
		}
		_, dirty := c.Contains(r.Addr(i))
		if !dirty {
			t.Fatalf("element %d: live=%v image=%v but line not dirty", i, live[i], img[i])
		}
	}
	// And after a full writeback, image == live everywhere.
	c.WritebackAll()
	for i := range live {
		if live[i] != img[i] {
			t.Fatalf("after WritebackAll element %d: live=%v image=%v", i, live[i], img[i])
		}
	}
}

func TestResetStats(t *testing.T) {
	clock := &sim.Clock{}
	c := tinyCache(t, clock, nil)
	c.Load(64, 8)
	c.ResetStats()
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("stats after reset = %+v", st)
	}
	// State must be preserved: this is a hit.
	c.Load(64, 8)
	if st := c.Stats(); st.LineHits != 1 || st.LineMisses != 0 {
		t.Fatalf("cache state lost on ResetStats: %+v", st)
	}
}

// TestFlushFreePricing: on an eADR platform (FlushFree) every flush
// variant retires at the flat hit cost, but data movement, dirty-bit
// transitions, and stats stay byte-identical to the ADR twin — only the
// clock deviates.
func TestFlushFreePricing(t *testing.T) {
	run := func(flushFree bool) (int64, Stats, []mem.Addr) {
		clock := &sim.Clock{}
		sink := &recSink{}
		cfg := Config{
			SizeBytes:         4 * 64 * 2,
			LineBytes:         64,
			Assoc:             2,
			HitNS:             1,
			FlushChargesClean: true,
			FlushFree:         flushFree,
		}
		c := New(cfg, clock, flatModel{read: 100, write: 50}, sink)
		c.Store(64, 8)  // dirty
		c.Load(128, 8)  // clean resident
		c.Store(192, 8) // dirty, for the CLWB leg
		before := clock.Now()
		c.Flush(64, 8)     // dirty: writeback
		c.Flush(128, 8)    // clean resident
		c.Flush(1024, 8)   // absent
		c.FlushOpt(192, 8) // CLWB on dirty: writeback, stays resident
		if res, _ := c.Contains(192); !res {
			t.Fatal("CLWB evicted the line")
		}
		if res, _ := c.Contains(64); res {
			t.Fatal("CLFLUSH left the line resident")
		}
		return clock.Now() - before, c.Stats(), sink.wbs
	}

	adrCost, adrStats, adrWbs := run(false)
	freeCost, freeStats, freeWbs := run(true)

	// ADR: two dirty writebacks at 50 plus two clean/absent flushes at
	// 50 under FlushChargesClean. eADR: four flushes at HitNS=1 each.
	if adrCost != 200 {
		t.Fatalf("ADR flush cost = %d, want 200", adrCost)
	}
	if freeCost != 4 {
		t.Fatalf("eADR flush cost = %d, want 4 (flat hit cost per flush)", freeCost)
	}
	if adrStats != freeStats {
		t.Fatalf("stats diverge: ADR %+v, eADR %+v", adrStats, freeStats)
	}
	if len(adrWbs) != 2 || len(freeWbs) != 2 || adrWbs[0] != freeWbs[0] || adrWbs[1] != freeWbs[1] {
		t.Fatalf("writeback streams diverge: ADR %v, eADR %v", adrWbs, freeWbs)
	}
}
