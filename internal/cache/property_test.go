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

// refCache is a naive reference implementation of the simulator's
// visible semantics: plain associative set scans, no line directory, no
// occupancy index, no address-arithmetic fast paths. The property test
// and FuzzCacheOps drive it in lockstep with the real Cache to guard the
// hit path that trusts the directory without reading the way: any
// divergence in hit, miss, writeback, or flush accounting — or in which
// lines end up resident and dirty — means some transition left the
// directory behind the ways.
type refCache struct {
	lineBytes int
	nsets     int
	assoc     int
	ways      []refWay // nsets * assoc, set-major
	tick      uint64

	loads, stores                   int64
	hits, misses                    int64
	writebacks, flushes, flushDirty int64
}

type refWay struct {
	tag   uint64
	valid bool
	dirty bool
	use   uint64
}

func newRefCache(cfg Config) *refCache {
	nsets := cfg.SizeBytes / (cfg.LineBytes * cfg.Assoc)
	return &refCache{
		lineBytes: cfg.LineBytes,
		nsets:     nsets,
		assoc:     cfg.Assoc,
		ways:      make([]refWay, nsets*cfg.Assoc),
	}
}

func (r *refCache) set(ln uint64) []refWay {
	s := ln % uint64(r.nsets)
	return r.ways[s*uint64(r.assoc) : (s+1)*uint64(r.assoc)]
}

func (r *refCache) find(ln uint64) *refWay {
	set := r.set(ln)
	for i := range set {
		if set[i].valid && set[i].tag == ln {
			return &set[i]
		}
	}
	return nil
}

func (r *refCache) access(a mem.Addr, size int, store bool) {
	if store {
		r.stores++
	} else {
		r.loads++
	}
	if size <= 0 {
		return
	}
	first := uint64(a) / uint64(r.lineBytes)
	last := (uint64(a) + uint64(size) - 1) / uint64(r.lineBytes)
	for ln := first; ln <= last; ln++ {
		r.tick++
		if w := r.find(ln); w != nil {
			w.use = r.tick
			if store {
				w.dirty = true
			}
			r.hits++
			continue
		}
		r.misses++
		set := r.set(ln)
		victim := &set[0]
		for i := range set {
			w := &set[i]
			if !w.valid {
				victim = w
				break
			}
			if w.use < victim.use {
				victim = w
			}
		}
		if victim.valid && victim.dirty {
			r.writebacks++
		}
		victim.tag = ln
		victim.valid = true
		victim.dirty = store
		victim.use = r.tick
	}
}

func (r *refCache) flush(a mem.Addr, size int, opt bool) {
	if size <= 0 {
		return
	}
	first := uint64(a) / uint64(r.lineBytes)
	last := (uint64(a) + uint64(size) - 1) / uint64(r.lineBytes)
	for ln := first; ln <= last; ln++ {
		r.flushes++
		w := r.find(ln)
		if w == nil {
			continue
		}
		if w.dirty {
			r.flushDirty++
		}
		w.dirty = false
		if !opt {
			w.valid = false // CLFLUSH invalidates; CLWB keeps resident
		}
	}
}

func (r *refCache) writebackAll() {
	for i := range r.ways {
		w := &r.ways[i]
		if w.valid && w.dirty {
			r.writebacks++
			w.dirty = false
		}
	}
}

func (r *refCache) discardAll() {
	for i := range r.ways {
		r.ways[i] = refWay{}
	}
}

// lockstep drives the simulator and the reference model with the same
// operations.
type lockstep struct {
	c   *Cache
	ref *refCache
}

func newLockstep(cfg Config) *lockstep {
	c := New(cfg, &sim.Clock{}, nvm.NewUniform(nvm.DRAMLikeNVM()), nil)
	return &lockstep{c: c, ref: newRefCache(cfg)}
}

func (l *lockstep) load(a mem.Addr, size int) {
	l.c.Load(a, size)
	l.ref.access(a, size, false)
}

// loadEach checks the gather against the reference's one 8-byte load
// per index.
func (l *lockstep) loadEach(base mem.Addr, idx []int64) {
	l.c.LoadEach(base, idx)
	for _, j := range idx {
		l.ref.access(base+mem.Addr(8*j), 8, false)
	}
}

func (l *lockstep) store(a mem.Addr, size int) {
	l.c.Store(a, size)
	l.ref.access(a, size, true)
}

func (l *lockstep) flush(a mem.Addr, size int) {
	l.c.Flush(a, size)
	l.ref.flush(a, size, false)
}

func (l *lockstep) flushOpt(a mem.Addr, size int) {
	l.c.FlushOpt(a, size)
	l.ref.flush(a, size, true)
}

func (l *lockstep) writebackAll() {
	l.c.WritebackAll()
	l.ref.writebackAll()
}

func (l *lockstep) discardAll() {
	l.c.DiscardAll()
	l.ref.discardAll()
}

// compare reports the first divergence between simulator and reference:
// an event counter, the residency or dirtiness of a line in one of the
// [lo, hi) line ranges (read through Contains, a set scan that consults
// neither the directory nor the occupancy index), or the dirty count.
func (l *lockstep) compare(ranges ...[2]uint64) error {
	st, ref := l.c.Stats(), l.ref
	if st.Loads != ref.loads || st.Stores != ref.stores ||
		st.LineHits != ref.hits || st.LineMisses != ref.misses ||
		st.Writebacks != ref.writebacks || st.Flushes != ref.flushes ||
		st.FlushDirty != ref.flushDirty {
		return fmt.Errorf("stats diverge\ncache: %+v\nref:   loads=%d stores=%d hits=%d misses=%d wb=%d fl=%d fld=%d",
			st, ref.loads, ref.stores, ref.hits, ref.misses, ref.writebacks, ref.flushes, ref.flushDirty)
	}
	for _, r := range ranges {
		for ln := r[0]; ln < r[1]; ln++ {
			res, dirty := l.c.Contains(mem.Addr(ln * uint64(ref.lineBytes)))
			w := ref.find(ln)
			wantRes := w != nil
			wantDirty := wantRes && w.dirty
			if res != wantRes || dirty != wantDirty {
				return fmt.Errorf("line %d state (%v,%v), ref (%v,%v)", ln, res, dirty, wantRes, wantDirty)
			}
		}
	}
	if got, want := l.c.DirtyLines(), refDirty(ref); got != want {
		return fmt.Errorf("DirtyLines %d, ref %d", got, want)
	}
	return nil
}

// auditDirectory checks directory ≡ ways, the invariant the hit path
// rests on. Every entry names a valid way that holds the entry's line
// and agrees with it on dirtiness, and every valid way below the bound is
// the one its line's entry names — so an entry exists iff exactly one
// valid way holds the line. The slice never reaches past dirMaxLines, so
// no wild line has an entry.
func auditDirectory(c *Cache) error {
	if len(c.wayOf) > dirMaxLines {
		return fmt.Errorf("directory has %d entries, past the bound %d", len(c.wayOf), dirMaxLines)
	}
	for ln, e := range c.wayOf {
		if e == 0 {
			continue
		}
		wi := int(e&dirWay) - 1
		if wi >= len(c.ways) {
			return fmt.Errorf("line %d: entry %#x names way %d of %d", ln, e, wi, len(c.ways))
		}
		w := c.ways[wi]
		if !w.valid || w.tag != uint64(ln) {
			return fmt.Errorf("line %d: entry %#x names way %d, which holds %+v", ln, e, wi, w)
		}
		if (e&dirDirty != 0) != w.dirty {
			return fmt.Errorf("line %d: entry %#x disagrees with way %d on dirtiness: %+v", ln, e, wi, w)
		}
	}
	for wi, w := range c.ways {
		if !w.valid || w.tag >= dirMaxLines {
			continue
		}
		if w.tag >= uint64(len(c.wayOf)) || int(c.wayOf[w.tag]&dirWay)-1 != wi {
			return fmt.Errorf("way %d holds %+v, but the directory does not name it", wi, w)
		}
	}
	return nil
}

// TestCacheMatchesReferenceModel is the property test: randomized small
// access streams (loads, stores, CLFLUSH, CLWB, drains, crashes, over
// directory lines and wild ones) must leave the optimized simulator and
// the naive reference in identical states — event counters and per-line
// residency/dirtiness alike — and the directory equal to the ways after
// every single operation.
func TestCacheMatchesReferenceModel(t *testing.T) {
	configs := []Config{
		{SizeBytes: 2 << 10, LineBytes: 64, Assoc: 4, HitNS: 4, FlushChargesClean: true, PrefetchStreams: 16},
		{SizeBytes: 4 << 10, LineBytes: 64, Assoc: 16, HitNS: 4, FlushChargesClean: false, PrefetchStreams: 0},
		{SizeBytes: 3 << 10, LineBytes: 64, Assoc: 12, HitNS: 2, FlushChargesClean: true, PrefetchStreams: 4},
	}
	const (
		addrLines = 96   // address space: more lines than the cache holds
		maxDir    = 2048 // regrow ops stop once the directory is this long
		ops       = 4000
	)
	for ci, cfg := range configs {
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(1000*int64(ci) + seed))
			l := newLockstep(cfg)
			c := l.c
			line := cfg.LineBytes

			check := func(step int) {
				t.Helper()
				// Every line a stream can have touched: the regrow ops
				// reach the directory's end, the wild ops mirror the
				// address space past the bound.
				err := l.compare([2]uint64{0, uint64(len(c.wayOf)) + 4},
					[2]uint64{dirMaxLines, dirMaxLines + addrLines + 4})
				if err != nil {
					t.Fatalf("cfg %d seed %d step %d: %v", ci, seed, step, err)
				}
			}
			// The occupancy index is lazy, so it is checked after every
			// op, in whatever state of staleness the op left it: the
			// enumeration must equal a scan of the ways. Odd seeds ask only
			// every fifth op, so stale and repeated entries pile up between
			// walks as they do between crash points.
			checkIndex := func(step int) {
				t.Helper()
				if seed%2 == 1 && step%5 != 0 {
					return
				}
				want := scanDirty(c)
				if got := c.DirtyLineAddrs(); !slices.Equal(got, want) {
					t.Fatalf("cfg %d seed %d step %d: DirtyLineAddrs %v, way scan %v", ci, seed, step, got, want)
				}
				if got := c.DirtyLines(); got != len(want) {
					t.Fatalf("cfg %d seed %d step %d: DirtyLines %d, way scan %d", ci, seed, step, got, len(want))
				}
			}
			for i := 0; i < ops; i++ {
				a := mem.Addr(rng.Intn(addrLines * line))
				if rng.Intn(25) == 0 {
					a += dirMaxLines * mem.Addr(line) // a wild line
				}
				size := 1 + rng.Intn(3*line) // up to 4 lines per access
				switch p := rng.Intn(100); {
				case p < 38:
					l.load(a, size)
				case p < 76:
					l.store(a, size)
				case p < 84:
					l.flush(a, size)
				case p < 90:
					l.flushOpt(a, size)
				case p < 93: // a store hit on lines CLWB just cleaned
					l.flushOpt(a, size)
					l.store(a, size)
				case p < 95:
					l.writebackAll()
				case p < 97: // the later lines of one load regrow the directory
					if n := len(c.wayOf); n >= 2 && n < maxDir {
						l.load(mem.Addr((n-2)*line), 4*line)
					}
				case p < 98:
					l.discardAll()
				default: // the crash protocol
					l.discardAll()
					c.ResetVolatile()
				}
				if err := auditDirectory(c); err != nil {
					t.Fatalf("cfg %d seed %d step %d: %v", ci, seed, i, err)
				}
				checkIndex(i)
				if i%251 == 0 {
					check(i)
				}
			}
			check(ops)
		}
	}
}

func refDirty(r *refCache) int {
	n := 0
	for i := range r.ways {
		if r.ways[i].valid && r.ways[i].dirty {
			n++
		}
	}
	return n
}

// scanDirty is the brute-force enumeration the occupancy index replaces:
// every way, sorted by line address.
func scanDirty(c *Cache) []mem.Addr {
	var addrs []mem.Addr
	for i := range c.ways {
		if w := &c.ways[i]; w.valid && w.dirty {
			addrs = append(addrs, c.lineAddr(w.tag))
		}
	}
	slices.Sort(addrs)
	return addrs
}

// TestOccupancyIndexStaleMarksAndWildLines pins down, step by step, what
// the random streams only pass through: marks left behind by many
// dirty-and-flush rounds are dropped by the next walk, a dirty line past
// the directory bound is enumerated and dirtied again without ever
// getting a directory entry, and DiscardAll clears exactly what was
// filled — ways and directory entries both.
func TestOccupancyIndexStaleMarksAndWildLines(t *testing.T) {
	cfg := Config{SizeBytes: 1 << 10, LineBytes: 64, Assoc: 4, HitNS: 1}
	c := New(cfg, &sim.Clock{}, nvm.NewUniform(nvm.DRAMLikeNVM()), nil)

	for i := 0; i < 3*len(c.ways); i++ {
		c.Store(mem.Addr(64*(1+i%7)), 8)
		c.Flush(mem.Addr(64*(1+i%7)), 8)
	}
	if got := c.DirtyLineAddrs(); len(got) != 0 {
		t.Fatalf("DirtyLineAddrs after flushing everything = %v", got)
	}
	for _, word := range c.dirtyBits {
		if word != 0 {
			t.Fatalf("the walk left stale marks behind: %#x", c.dirtyBits)
		}
	}
	c.Store(128, 8)
	c.Store(64, 8)
	wild := mem.Addr(dirMaxLines+5) * 64
	c.Store(wild, 8)
	c.Load(192, 8)
	want := []mem.Addr{64, 128, wild}
	if got := c.DirtyLineAddrs(); !slices.Equal(got, want) {
		t.Fatalf("DirtyLineAddrs = %v, want %v", got, want)
	}
	if len(c.wayOf) >= dirMaxLines {
		t.Fatalf("the wild line grew the directory to %d entries", len(c.wayOf))
	}
	// A wild line dirtied again by a store hit is found through the set
	// scan, not the directory.
	c.FlushOpt(wild, 8)
	if got := c.DirtyLines(); got != 2 {
		t.Fatalf("DirtyLines after CLWB of the wild line = %d, want 2", got)
	}
	c.Store(wild, 8)
	if got := c.DirtyLineAddrs(); !slices.Equal(got, want) {
		t.Fatalf("DirtyLineAddrs after CLWB+store of the wild line = %v, want %v", got, want)
	}
	if err := auditDirectory(c); err != nil {
		t.Fatal(err)
	}
	c.DiscardAll()
	for i := range c.ways {
		if c.ways[i] != (way{}) {
			t.Fatalf("way %d survived DiscardAll: %+v", i, c.ways[i])
		}
	}
	for ln, e := range c.wayOf {
		if e != 0 {
			t.Fatalf("directory entry of line %d survived DiscardAll: %#x", ln, e)
		}
	}
	if c.DirtyLines() != 0 {
		t.Fatal("DiscardAll left dirty lines behind")
	}
}

// wbLog records the writebacks a cache hands its sink.
type wbLog []mem.Addr

func (w *wbLog) Writeback(a mem.Addr, size int) { *w = append(*w, a) }

// TestLoadEachMatchesLoad: one LoadEach is one 8-byte Load per index.
// Two caches, one gathering and one loading index by index, must stay
// equal in counters, clock, ways, directory, replacement and prefetcher
// state and writeback stream — with the directory equal to the ways —
// over gathers that miss, evict dirty lines, regrow the directory, reach
// wild lines past dirMaxLines, straddle two lines from an unaligned base
// and walk line after line as a prefetch stream.
func TestLoadEachMatchesLoad(t *testing.T) {
	cfg := Config{SizeBytes: 2 << 10, LineBytes: 64, Assoc: 4, HitNS: 4, FlushChargesClean: true, PrefetchStreams: 4}
	var gLog, lLog wbLog
	gClock, lClock := &sim.Clock{}, &sim.Clock{}
	g := New(cfg, gClock, nvm.NewUniform(nvm.DRAMLikeNVM()), &gLog)
	l := New(cfg, lClock, nvm.NewUniform(nvm.DRAMLikeNVM()), &lLog)
	rng := rand.New(rand.NewSource(15))
	regrows, wild, streams := 0, 0, 0
	for step := 0; step < 4000; step++ {
		if rng.Intn(3) == 0 { // dirty lines for the gathers to evict
			a := mem.Addr(64 * (1 + rng.Intn(96)))
			g.Store(a, 8)
			l.Store(a, 8)
		}
		base := mem.Addr(64 * (1 + rng.Intn(96)))
		switch p := rng.Intn(10); {
		case p == 0 && len(g.wayOf) < 4096:
			base = mem.Addr(64 * len(g.wayOf))
			regrows++
		case p == 1: // past the bound by more than an index reaches back
			base += (dirMaxLines + 8) * 64
			wild++
		case p == 2:
			base += 4
		}
		idx := make([]int64, rng.Intn(24))
		stream := rng.Intn(4) == 0
		for k := range idx {
			if stream {
				idx[k] = int64(8 * k)
			} else {
				idx[k] = int64(rng.Intn(8*24) - 8*8)
			}
		}
		if stream && len(idx) > 1 {
			streams++
		}
		g.LoadEach(base, idx)
		for _, j := range idx {
			l.Load(base+mem.Addr(8*j), 8)
		}
		if g.Stats() != l.Stats() || gClock.Now() != lClock.Now() {
			t.Fatalf("step %d: LoadEach(%#x, %v)\nstats %+v at %d ns\nLoad loop %+v at %d ns",
				step, base, idx, g.Stats(), gClock.Now(), l.Stats(), lClock.Now())
		}
		if !slices.Equal(g.ways, l.ways) || !slices.Equal(g.wayOf, l.wayOf) || !slices.Equal(gLog, lLog) ||
			!slices.Equal(g.streams, l.streams) || g.nextStream != l.nextStream || g.tick != l.tick || g.lastWbLine != l.lastWbLine {
			t.Fatalf("step %d: LoadEach(%#x, %v) left the cache in another state than the Load loop", step, base, idx)
		}
		if err := auditDirectory(g); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	st := g.Stats()
	if regrows == 0 || wild == 0 || streams == 0 || st.Writebacks == 0 || st.Prefetched == 0 {
		t.Fatalf("the stream missed a case: %d regrows, %d wild, %d streams, stats %+v", regrows, wild, streams, st)
	}
}
