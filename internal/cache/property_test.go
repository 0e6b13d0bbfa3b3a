package cache

import (
	"math/rand"
	"slices"
	"testing"

	"adcc/internal/mem"
	"adcc/internal/nvm"
	"adcc/internal/sim"
)

// refCache is a naive reference implementation of the simulator's
// visible semantics: plain associative set scans, no line directory, no
// MRU memo, no address-arithmetic fast paths. The property test drives
// it in lockstep with the real Cache on randomized access streams to
// guard the O(1) wayOf/MRU hit paths: any divergence in hit, miss,
// writeback, or flush accounting — or in which lines end up resident
// and dirty — is a bug in one of the fast paths.
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

// TestCacheMatchesReferenceModel is the property test: randomized small
// access streams (loads, stores, CLFLUSH, CLWB, drains, crashes) must
// leave the optimized simulator and the naive reference in identical
// states — event counters and per-line residency/dirtiness alike.
func TestCacheMatchesReferenceModel(t *testing.T) {
	configs := []Config{
		{SizeBytes: 2 << 10, LineBytes: 64, Assoc: 4, HitNS: 4, FlushChargesClean: true, PrefetchStreams: 16},
		{SizeBytes: 4 << 10, LineBytes: 64, Assoc: 16, HitNS: 4, FlushChargesClean: false, PrefetchStreams: 0},
		{SizeBytes: 3 << 10, LineBytes: 64, Assoc: 12, HitNS: 2, FlushChargesClean: true, PrefetchStreams: 4},
	}
	const (
		addrLines = 96 // address space: more lines than the cache holds
		ops       = 4000
	)
	for ci, cfg := range configs {
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(1000*int64(ci) + seed))
			clock := &sim.Clock{}
			c := New(cfg, clock, nvm.NewUniform(nvm.DRAMLikeNVM()), nil)
			ref := newRefCache(cfg)

			check := func(step int) {
				t.Helper()
				st := c.Stats()
				if st.Loads != ref.loads || st.Stores != ref.stores ||
					st.LineHits != ref.hits || st.LineMisses != ref.misses ||
					st.Writebacks != ref.writebacks || st.Flushes != ref.flushes ||
					st.FlushDirty != ref.flushDirty {
					t.Fatalf("cfg %d seed %d step %d: stats diverge\ncache: %+v\nref:   loads=%d stores=%d hits=%d misses=%d wb=%d fl=%d fld=%d",
						ci, seed, step, st, ref.loads, ref.stores, ref.hits, ref.misses,
						ref.writebacks, ref.flushes, ref.flushDirty)
				}
				for ln := 0; ln < addrLines; ln++ {
					a := mem.Addr(ln * cfg.LineBytes)
					res, dirty := c.Contains(a)
					w := ref.find(uint64(ln))
					wantRes := w != nil
					wantDirty := wantRes && w.dirty
					if res != wantRes || dirty != wantDirty {
						t.Fatalf("cfg %d seed %d step %d: line %d state (%v,%v), ref (%v,%v)",
							ci, seed, step, ln, res, dirty, wantRes, wantDirty)
					}
				}
				if got, want := c.DirtyLines(), refDirty(ref); got != want {
					t.Fatalf("cfg %d seed %d step %d: DirtyLines %d, ref %d", ci, seed, step, got, want)
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
				a := mem.Addr(rng.Intn(addrLines * cfg.LineBytes))
				size := 1 + rng.Intn(3*cfg.LineBytes) // up to 4 lines per access
				switch p := rng.Intn(100); {
				case p < 40:
					c.Load(a, size)
					ref.access(a, size, false)
				case p < 80:
					c.Store(a, size)
					ref.access(a, size, true)
				case p < 89:
					c.Flush(a, size)
					ref.flush(a, size, false)
				case p < 96:
					c.FlushOpt(a, size)
					ref.flush(a, size, true)
				case p < 97:
					c.WritebackAll()
					ref.writebackAll()
				default:
					c.DiscardAll()
					ref.discardAll()
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

// TestOccupancyIndexStaleMarksAndWildLines covers what the random
// streams do not reach: marks left behind by many dirty-and-flush rounds
// are dropped by the next walk, a dirty line past the directory bound is
// still enumerated, and DiscardAll clears exactly what was filled.
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
	c.DiscardAll()
	for i := range c.ways {
		if c.ways[i] != (way{}) {
			t.Fatalf("way %d survived DiscardAll: %+v", i, c.ways[i])
		}
	}
	if c.DirtyLines() != 0 {
		t.Fatal("DiscardAll left dirty lines behind")
	}
}
