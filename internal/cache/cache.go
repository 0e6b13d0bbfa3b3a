// Package cache implements the set-associative write-back LRU cache
// simulator at the core of the crash emulator (paper §III-A).
//
// The simulator is metadata-only: it tracks tags, dirty bits, and LRU
// state, but no data bytes. Data movement is delegated to a
// WritebackSink (the mem.Heap), which copies the live values of an
// evicted or flushed dirty line into the persistent NVM image. With a
// single simulated core and a write-back policy, a resident line always
// holds the most recent value of every byte it covers, so this is exact
// (ARCHITECTURE.md, "Metadata-only cache exactness").
//
// Timing: every access advances a sim.Clock — a flat hit cost on hits,
// and the memory system's read/write costs on fills and writebacks. The
// memory system below the cache is abstracted as a CostModel so the same
// cache drives the NVM-only and the heterogeneous NVM/DRAM platforms of
// the paper.
package cache

import (
	"fmt"
	"math/bits"
	"slices"

	"adcc/internal/mem"
	"adcc/internal/sim"
)

// CostModel prices accesses of the memory system below the cache.
// Implementations live in internal/nvm.
type CostModel interface {
	// ReadCost returns the simulated cost of reading size bytes at a.
	ReadCost(a mem.Addr, size int) int64
	// WriteCost returns the simulated cost of writing size bytes at a.
	WriteCost(a mem.Addr, size int) int64
	// ReadCostSeq and WriteCostSeq price accesses recognized as part
	// of a sequential stream (hardware prefetch / write combining):
	// bandwidth-bound, latency hidden.
	ReadCostSeq(a mem.Addr, size int) int64
	WriteCostSeq(a mem.Addr, size int) int64
}

// WritebackSink receives the data movement of dirty-line writebacks.
// mem.Heap implements it.
type WritebackSink interface {
	Writeback(a mem.Addr, size int)
}

// ConstantCostModel is an optional CostModel refinement for memory
// systems whose access costs do not depend on the address (the NVM-only
// Uniform system). When the cache's CostModel implements it and reports
// ok, the four line-sized costs are computed once at construction and
// the hot paths skip the per-access interface calls and float
// arithmetic of the general path. The cached values come from the same
// cost methods, so simulated timings are identical either way.
type ConstantCostModel interface {
	// ConstantLineCosts returns the fixed costs of a size-byte access
	// and reports whether costs are in fact address-independent.
	ConstantLineCosts(size int) (read, readSeq, write, writeSeq int64, ok bool)
}

// Config describes cache geometry and timing.
type Config struct {
	// SizeBytes is the total capacity. Must be a multiple of
	// LineBytes*Assoc.
	SizeBytes int
	// LineBytes is the line size; it must equal mem.LineSize when the
	// cache fronts a mem.Heap.
	LineBytes int
	// Assoc is the set associativity.
	Assoc int
	// HitNS is the flat simulated cost of a cache hit.
	HitNS int64
	// FlushChargesClean controls whether flushing a clean or absent
	// line is charged like a dirty writeback. The paper (§II) states
	// the costs are of the same order, and its evaluation assumes so.
	FlushChargesClean bool
	// PrefetchStreams is the number of concurrent sequential streams
	// the modeled hardware prefetcher tracks. A line fill that extends
	// a tracked stream is charged the bandwidth-only sequential cost.
	// Zero disables prefetch modeling.
	PrefetchStreams int
	// FlushFree models an eADR platform, where the LLC sits inside the
	// persistence domain and explicit flushes are semantically
	// unnecessary: CLFLUSH and CLWB retire at the flat hit cost instead
	// of the memory system's write cost (FlushChargesClean included).
	// Only pricing changes — data movement, invalidation, and dirty-bit
	// transitions are identical to the ADR configuration, so the access
	// stream, the crash-point space, and the evolution of cache state
	// are byte-for-byte the same and only the simulated clock differs.
	// The crash-time drain (dirty lines persist instead of vanishing)
	// is modeled one layer up, by crash.FaultModel kind EADR.
	FlushFree bool
}

// DefaultConfig returns the LLC configuration used throughout the
// reproduction: 2 MB, 64 B lines, 16-way, 4 ns hit. The paper's Xeon
// E5606 has an 8 MB LLC; problem sizes in this reproduction are scaled
// down 4-8x from the paper's, and the LLC scales with them so that the
// working-set-to-cache ratios — which drive every consistency result —
// are preserved.
func DefaultConfig() Config {
	return Config{
		SizeBytes:         2 << 20,
		LineBytes:         mem.LineSize,
		Assoc:             16,
		HitNS:             4,
		FlushChargesClean: true,
		PrefetchStreams:   16,
	}
}

// Stats counts simulator events.
type Stats struct {
	Loads      int64 // load requests: one per Load call (a range counts once), one per LoadEach index
	Stores     int64 // store requests: one per Store call
	LineHits   int64 // per-line hits
	LineMisses int64 // per-line misses (fills)
	Writebacks int64 // dirty evictions (capacity)
	Flushes    int64 // lines explicitly flushed
	FlushDirty int64 // flushed lines that were dirty
	Prefetched int64 // fills covered by the stream prefetcher
}

type way struct {
	tag   uint64
	valid bool
	dirty bool
	use   uint64
}

// Cache is a set-associative write-back LRU cache simulator. It
// implements mem.Accessor so it can be installed directly as a heap's
// access observer.
type Cache struct {
	cfg   Config
	nsets uint64
	ways  []way // nsets * assoc, set-major
	clock *sim.Clock
	mem   CostModel
	sink  WritebackSink
	tick  uint64
	stats Stats

	// Address-arithmetic fast paths: line size and set count are powers
	// of two for every practical geometry, turning the per-access
	// divisions of the hot path into shifts and masks. The slow
	// (divide/modulo) forms remain as fallback for odd geometries.
	pow2Line  bool
	lineShift uint
	pow2Sets  bool
	setMask   uint64

	// wayOf is the line directory: a flat slice keyed by line number that
	// is the single source of truth for the residency of every line below
	// dirMaxLines. An entry is 0 when the line is not resident; otherwise
	// its low 31 bits hold wayIndex+1 and its top bit (dirDirty) mirrors
	// the way's dirty bit. It is maintained eagerly — every fill, victim
	// replacement, writeback, CLWB, CLFLUSH and discard updates the entry
	// in the same step as the way — so a hit trusts the entry without
	// reading the way back: one host load per simulated line, where
	// re-validating a lazy entry against the way's tag cost a second,
	// dependent host cache miss into the much larger ways array. Lines in
	// [len(wayOf), dirMaxLines) are not resident by construction (a fill
	// grows the slice); lines at or past dirMaxLines are never recorded
	// and are found by scanning their set (see scanSet): growing the dense
	// slice toward a wild line number would allocate memory proportional
	// to the address.
	wayOf []uint32

	// Occupancy index: one bit per way, set when the way turns dirty
	// (dirtyBits) or valid (fillBits), so enumerating the dirty lines
	// and discarding the cache visit the marked ways instead of every
	// way. Unlike the directory the bitmaps are lazy — nothing clears a
	// bit when a way is cleaned, evicted or invalidated; whoever walks a
	// bitmap checks each marked way's own bits and unmarks the stale
	// ones. A set bit therefore means "may be", a clear bit "is not".
	dirtyBits []uint64
	fillBits  []uint64

	// Line-sized costs precomputed from a ConstantCostModel; valid only
	// when constCost is set (address-independent memory system).
	constCost               bool
	lineRead, lineReadSeq   int64
	lineWrite, lineWriteSeq int64

	// Prefetcher state: the line numbers that would extend each
	// tracked stream, in round-robin replacement order.
	streams    []uint64
	nextStream int
	lastWbLine uint64
}

// New constructs a cache simulator. clock and memory must be non-nil;
// sink may be nil (cost-only simulation with no data movement).
func New(cfg Config, clock *sim.Clock, memory CostModel, sink WritebackSink) *Cache {
	if cfg.LineBytes <= 0 || cfg.Assoc <= 0 || cfg.SizeBytes <= 0 {
		panic(fmt.Sprintf("cache: invalid config %+v", cfg))
	}
	if cfg.SizeBytes%(cfg.LineBytes*cfg.Assoc) != 0 {
		panic(fmt.Sprintf("cache: size %d not divisible by line*assoc", cfg.SizeBytes))
	}
	nsets := cfg.SizeBytes / (cfg.LineBytes * cfg.Assoc)
	c := &Cache{
		cfg:     cfg,
		nsets:   uint64(nsets),
		ways:    make([]way, nsets*cfg.Assoc),
		clock:   clock,
		mem:     memory,
		sink:    sink,
		streams: make([]uint64, cfg.PrefetchStreams),
	}
	c.dirtyBits = make([]uint64, (len(c.ways)+63)/64)
	c.fillBits = make([]uint64, len(c.dirtyBits))
	if cfg.LineBytes&(cfg.LineBytes-1) == 0 {
		c.pow2Line = true
		c.lineShift = uint(bits.TrailingZeros64(uint64(cfg.LineBytes)))
	}
	if nsets&(nsets-1) == 0 {
		c.pow2Sets = true
		c.setMask = uint64(nsets) - 1
	}
	if m, ok := memory.(ConstantCostModel); ok {
		if r, rs, w, ws, fixed := m.ConstantLineCosts(cfg.LineBytes); fixed {
			c.constCost = true
			c.lineRead, c.lineReadSeq = r, rs
			c.lineWrite, c.lineWriteSeq = w, ws
		}
	}
	return c
}

// readCost prices a line fill at a (non-sequential).
func (c *Cache) readCost(a mem.Addr) int64 {
	if c.constCost {
		return c.lineRead
	}
	return c.mem.ReadCost(a, c.cfg.LineBytes)
}

// readSeqCost prices a prefetched (stream-covered) line fill at a.
func (c *Cache) readSeqCost(a mem.Addr) int64 {
	if c.constCost {
		return c.lineReadSeq
	}
	return c.mem.ReadCostSeq(a, c.cfg.LineBytes)
}

// writeCost prices a line writeback at a (non-sequential).
func (c *Cache) writeCost(a mem.Addr) int64 {
	if c.constCost {
		return c.lineWrite
	}
	return c.mem.WriteCost(a, c.cfg.LineBytes)
}

// writeSeqCost prices a write-combined streaming writeback at a.
func (c *Cache) writeSeqCost(a mem.Addr) int64 {
	if c.constCost {
		return c.lineWriteSeq
	}
	return c.mem.WriteCostSeq(a, c.cfg.LineBytes)
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the event counters without touching cache state.
func (c *Cache) ResetStats() { c.stats = Stats{} }

func (c *Cache) lineNumber(a mem.Addr) uint64 {
	if c.pow2Line {
		return uint64(a) >> c.lineShift
	}
	return uint64(a) / uint64(c.cfg.LineBytes)
}

func (c *Cache) lineAddr(tag uint64) mem.Addr {
	if c.pow2Line {
		return mem.Addr(tag << c.lineShift)
	}
	return mem.Addr(tag * uint64(c.cfg.LineBytes))
}

// setBase returns the index of the first way of the set holding line
// number ln.
func (c *Cache) setBase(ln uint64) uint64 {
	var s uint64
	if c.pow2Sets {
		s = ln & c.setMask
	} else {
		s = ln % c.nsets
	}
	return s * uint64(c.cfg.Assoc)
}

// set returns the ways of the set holding line number ln.
func (c *Cache) set(ln uint64) []way {
	b := c.setBase(ln)
	return c.ways[b : b+uint64(c.cfg.Assoc)]
}

// dirMaxLines bounds the dense line directory: 1<<26 lines cover 4 GiB
// of simulated address space, far beyond any workload's heap (regions
// are allocated compactly from zero). Below the bound the directory is
// authoritative; accesses at or past it still simulate correctly through
// scanSet's associative scan — they occur only when recovery code chases
// an address read from a fault-corrupted image, and the bound keeps such
// a wild address from inflating the directory allocation to the size of
// the address.
const dirMaxLines = 1 << 26

// Directory entry layout: wayIndex+1 in the low 31 bits, the resident
// line's dirty bit on top.
const (
	dirDirty = 1 << 31
	dirWay   = dirDirty - 1
)

// lookupWay returns the way holding line ln, or nil when the line is
// not resident. Below dirMaxLines the directory entry alone decides;
// wild lines scan their set.
func (c *Cache) lookupWay(ln uint64) *way {
	var e uint32
	if ln < uint64(len(c.wayOf)) {
		e = c.wayOf[ln]
	} else if ln >= dirMaxLines {
		e = c.scanSet(ln)
	}
	if e == 0 {
		return nil
	}
	return &c.ways[e&dirWay-1]
}

// scanSet is the lookup of the wild lines the directory does not record:
// it scans ln's set and returns the entry the line would have, 0 when it
// is not resident.
func (c *Cache) scanSet(ln uint64) uint32 {
	base := c.setBase(ln)
	for i := base; i < base+uint64(c.cfg.Assoc); i++ {
		if w := &c.ways[i]; w.valid && w.tag == ln {
			e := uint32(i) + 1
			if w.dirty {
				e |= dirDirty
			}
			return e
		}
	}
	return 0
}

// setDir records that line ln now lives in way index wi, dirty or
// clean. Lines past the directory bound are not recorded. Growing may
// reallocate wayOf.
func (c *Cache) setDir(ln uint64, wi uint64, dirty bool) {
	if ln >= dirMaxLines {
		return
	}
	if ln >= uint64(len(c.wayOf)) {
		grown := ln + ln/2 + 64
		if grown > dirMaxLines {
			grown = dirMaxLines
		}
		g := make([]uint32, grown)
		copy(g, c.wayOf)
		c.wayOf = g
	}
	e := uint32(wi) + 1
	if dirty {
		e |= dirDirty
	}
	c.wayOf[ln] = e
}

// dirtyHit is the hit path's clean-to-dirty transition of the line in
// way wi. It is kept out of line so the hit path carries only the test.
//
//go:noinline
func (c *Cache) dirtyHit(wi uint64) {
	w := &c.ways[wi]
	w.dirty = true
	if w.tag < dirMaxLines {
		c.wayOf[w.tag] |= dirDirty
	}
	mark(c.dirtyBits, wi)
}

// cleanDir clears the directory's dirty bit of resident line ln, in the
// same step as the caller clears the way's.
func (c *Cache) cleanDir(ln uint64) {
	if ln < dirMaxLines {
		c.wayOf[ln] &^= dirDirty
	}
}

// dropDir clears the directory entry of line ln, in the same step as
// the caller invalidates or refills the line's way.
func (c *Cache) dropDir(ln uint64) {
	if ln < dirMaxLines {
		c.wayOf[ln] = 0
	}
}

// mark sets way wi's bit in an occupancy bitmap.
func mark(bm []uint64, wi uint64) { bm[wi>>6] |= 1 << (wi & 63) }

// dirtyWays calls visit with the index of every way that is valid and
// dirty now, in way order, and unmarks the ways that no longer are.
func (c *Cache) dirtyWays(visit func(wi int)) {
	for i, word := range c.dirtyBits {
		for rest := word; rest != 0; rest &= rest - 1 {
			wi := i<<6 | bits.TrailingZeros64(rest)
			if w := &c.ways[wi]; w.valid && w.dirty {
				visit(wi)
			} else {
				word &^= 1 << (wi & 63)
			}
		}
		c.dirtyBits[i] = word
	}
}

// Load implements mem.Accessor.
func (c *Cache) Load(a mem.Addr, size int) {
	c.stats.Loads++
	c.access(a, size, false)
}

// Store implements mem.Accessor.
func (c *Cache) Store(a mem.Addr, size int) {
	c.stats.Stores++
	c.access(a, size, true)
}

// LoadEach implements mem.Accessor: the 8-byte loads of an indexed
// gather, each counted as one load request and walked through the same
// directory hit path as access, with the hits of all of them billed
// once — nothing reads the clock between two lines.
func (c *Cache) LoadEach(base mem.Addr, idx []int64) {
	c.stats.Loads += int64(len(idx))
	var hits int64
	dir := c.wayOf
	for _, j := range idx {
		a := base + mem.Addr(8*j)
		for ln, last := c.lineNumber(a), c.lineNumber(a+7); ln <= last; ln++ {
			c.tick++
			var e uint32
			if ln < uint64(len(dir)) {
				e = dir[ln]
			} else if ln >= dirMaxLines {
				e = c.scanSet(ln)
			}
			if e == 0 {
				c.missLine(ln, false)
				dir = c.wayOf // the fill may have regrown the directory
				continue
			}
			c.ways[uint64(e&dirWay)-1].use = c.tick
			hits++
		}
	}
	c.stats.LineHits += hits
	c.clock.Advance(hits * c.cfg.HitNS)
}

func (c *Cache) access(a mem.Addr, size int, store bool) {
	if size <= 0 {
		return
	}
	first := c.lineNumber(a)
	last := c.lineNumber(a + mem.Addr(size) - 1)
	// Hits are counted here and billed once after the loop: the clock
	// is additive and nothing reads it between two lines of one access.
	var hits int64
	dir := c.wayOf
	for ln := first; ln <= last; ln++ {
		c.tick++
		var e uint32
		if ln < uint64(len(dir)) {
			e = dir[ln]
		} else if ln >= dirMaxLines {
			e = c.scanSet(ln)
		}
		if e == 0 {
			c.missLine(ln, store)
			dir = c.wayOf // the fill may have regrown the directory
			continue
		}
		// Hit: the entry is the residency truth, so a load hit never
		// reads the way.
		wi := uint64(e&dirWay) - 1
		c.ways[wi].use = c.tick
		if store && e&dirDirty == 0 {
			c.dirtyHit(wi)
		}
		hits++
	}
	c.stats.LineHits += hits
	c.clock.Advance(hits * c.cfg.HitNS)
}

// missLine performs the miss/evict/fill protocol for one line (the
// caller has already bumped the tick and ruled out a hit).
func (c *Cache) missLine(ln uint64, store bool) {
	// Choose a victim within the set (invalid way first, else LRU).
	c.stats.LineMisses++
	base := c.setBase(ln)
	set := c.ways[base : base+uint64(c.cfg.Assoc)]
	victim, vi := &set[0], uint64(0)
	for i := range set {
		w := &set[i]
		if !w.valid {
			victim, vi = w, uint64(i)
			mark(c.fillBits, base+vi)
			break
		}
		if w.use < victim.use {
			victim, vi = w, uint64(i)
		}
	}
	if victim.valid {
		if victim.dirty {
			c.evict(victim)
		}
		c.dropDir(victim.tag)
	}

	// Fill. Write-allocate on stores, as on real x86 write-back caches.
	// A fill extending a tracked sequential stream is prefetched:
	// bandwidth-only cost.
	if c.streamHit(ln) {
		c.stats.Prefetched++
		c.clock.Advance(c.readSeqCost(c.lineAddr(ln)))
	} else {
		c.clock.Advance(c.readCost(c.lineAddr(ln)))
	}
	if store {
		mark(c.dirtyBits, base+vi)
	}
	victim.tag = ln
	victim.valid = true
	victim.dirty = store
	victim.use = c.tick
	c.setDir(ln, base+vi, store)
}

// streamHit reports whether line ln extends a tracked stream, updating
// prefetcher state either way (a miss trains a new stream slot).
func (c *Cache) streamHit(ln uint64) bool {
	if len(c.streams) == 0 {
		return false
	}
	for i, next := range c.streams {
		if next == ln {
			c.streams[i] = ln + 1
			return true
		}
	}
	// Train: a new stream expecting the successor line.
	c.streams[c.nextStream] = ln + 1
	c.nextStream = (c.nextStream + 1) % len(c.streams)
	return false
}

// evict writes back a dirty line: data movement via the sink and cost via
// the memory model.
func (c *Cache) evict(w *way) {
	c.stats.Writebacks++
	addr := c.lineAddr(w.tag)
	if c.sink != nil {
		c.sink.Writeback(addr, c.cfg.LineBytes)
	}
	// Consecutive writebacks (streaming dirty data) are write-combined.
	if len(c.streams) > 0 && w.tag == c.lastWbLine+1 {
		c.clock.Advance(c.writeSeqCost(addr))
	} else {
		c.clock.Advance(c.writeCost(addr))
	}
	c.lastWbLine = w.tag
	w.dirty = false
	c.cleanDir(w.tag)
}

// Flush emulates CLFLUSH over the byte range [a, a+size): every covered
// line is written back if dirty and invalidated. Per the paper's stated
// cost assumption, clean and absent lines are charged like dirty ones
// when Config.FlushChargesClean is set.
func (c *Cache) Flush(a mem.Addr, size int) {
	if size <= 0 {
		return
	}
	first := c.lineNumber(a)
	last := c.lineNumber(a + mem.Addr(size) - 1)
	for ln := first; ln <= last; ln++ {
		c.flushLine(ln)
	}
}

func (c *Cache) flushLine(ln uint64) {
	c.stats.Flushes++
	if w := c.lookupWay(ln); w != nil {
		c.flushResident(w, ln)
		return
	}
	// Absent line: CLFLUSH still issues and, per the paper, costs the
	// same order as flushing a resident line — unless the platform is
	// eADR, where a flush is a retired no-op.
	if c.cfg.FlushFree {
		c.clock.Advance(c.cfg.HitNS)
	} else if c.cfg.FlushChargesClean {
		c.clock.Advance(c.writeCost(c.lineAddr(ln)))
	}
}

// flushResident performs the CLFLUSH protocol on a resident line:
// write back if dirty, charge per the clean-flush policy, invalidate.
// On a FlushFree (eADR) platform the writeback still moves data — the
// crash-time drain would persist the same bytes anyway — but retires
// at pipeline cost.
func (c *Cache) flushResident(w *way, ln uint64) {
	if w.dirty {
		c.stats.FlushDirty++
		addr := c.lineAddr(ln)
		if c.sink != nil {
			c.sink.Writeback(addr, c.cfg.LineBytes)
		}
		if c.cfg.FlushFree {
			c.clock.Advance(c.cfg.HitNS)
		} else {
			c.clock.Advance(c.writeCost(addr))
		}
	} else if c.cfg.FlushFree {
		c.clock.Advance(c.cfg.HitNS)
	} else if c.cfg.FlushChargesClean {
		c.clock.Advance(c.writeCost(c.lineAddr(ln)))
	}
	w.valid = false
	w.dirty = false
	c.dropDir(ln)
}

// FlushOpt emulates CLWB (cache-line write-back) over [a, a+size):
// dirty lines are written back but stay resident and clean, so
// subsequent accesses hit instead of refilling from memory. Clean and
// absent lines cost only a pipeline slot. The paper (§II) notes CLWB
// was not yet commercially available on its testbed and that using it
// "should further improve performance of our proposed approach"; the
// clwb ablation experiment quantifies exactly that.
func (c *Cache) FlushOpt(a mem.Addr, size int) {
	if size <= 0 {
		return
	}
	first := c.lineNumber(a)
	last := c.lineNumber(a + mem.Addr(size) - 1)
	for ln := first; ln <= last; ln++ {
		c.flushOptLine(ln)
	}
}

func (c *Cache) flushOptLine(ln uint64) {
	c.stats.Flushes++
	if w := c.lookupWay(ln); w != nil {
		c.flushOptResident(w, ln)
		return
	}
	// Absent line: CLWB retires without memory traffic.
	c.clock.Advance(c.cfg.HitNS)
}

// flushOptResident performs the CLWB protocol on a resident line: write
// back if dirty, keep the line valid and clean.
func (c *Cache) flushOptResident(w *way, ln uint64) {
	if w.dirty {
		c.stats.FlushDirty++
		addr := c.lineAddr(ln)
		if c.sink != nil {
			c.sink.Writeback(addr, c.cfg.LineBytes)
		}
		if c.cfg.FlushFree {
			c.clock.Advance(c.cfg.HitNS)
		} else {
			c.clock.Advance(c.writeCost(addr))
		}
		w.dirty = false
		c.cleanDir(ln)
	} else {
		c.clock.Advance(c.cfg.HitNS)
	}
}

// WritebackAll writes back every dirty line, leaving lines valid and
// clean. It models a full cache drain (e.g. before a planned shutdown)
// and is used by tests to force a consistent image.
func (c *Cache) WritebackAll() {
	// Way order, as write combining prices consecutive lines.
	c.dirtyWays(func(wi int) { c.evict(&c.ways[wi]) })
}

// DiscardAll models the crash: every line vanishes without writeback.
// Dirty data that never reached NVM is lost, exactly as on real hardware
// with volatile caches.
func (c *Cache) DiscardAll() {
	// A way fillBits does not mark has been invalid since the last
	// discard. The directory entries of the marked ways' lines go with
	// them, so the cost follows what was filled, not the directory's
	// size; a marked way a flush already invalidated holds a stale tag,
	// whose entry was dropped then and may name another way by now.
	for i, word := range c.fillBits {
		for ; word != 0; word &= word - 1 {
			w := &c.ways[i<<6|bits.TrailingZeros64(word)]
			if w.valid {
				c.dropDir(w.tag)
			}
			*w = way{}
		}
	}
	clear(c.fillBits)
	clear(c.dirtyBits)
}

// ResetVolatile clears the microarchitectural state that does not
// survive a machine crash and power cycle but is not part of the line
// directory proper: the LRU tick, the prefetcher's trained streams and
// the write-combining memo. Event counters are kept —
// they count what the simulation observed, not machine state. It is
// called by the crash protocol alongside DiscardAll, modeling that the
// restarted machine's prefetcher and replacement state are cold.
func (c *Cache) ResetVolatile() {
	c.tick = 0
	for i := range c.streams {
		c.streams[i] = 0
	}
	c.nextStream = 0
	c.lastWbLine = 0
}

// Contains reports whether the line holding address a is resident, and
// whether it is dirty. Used by tests and by the consistency reporter.
func (c *Cache) Contains(a mem.Addr) (resident, dirty bool) {
	ln := c.lineNumber(a)
	set := c.set(ln)
	for i := range set {
		w := &set[i]
		if w.valid && w.tag == ln {
			return true, w.dirty
		}
	}
	return false, false
}

// DirtyLineAddrs returns the line-base addresses of every dirty
// resident line, sorted ascending. This is the crash-time candidate
// set of the fault models: the lines an eADR drain would persist, a
// relaxed writeback order would permute, or an in-flight flush would
// tear. Sorting makes the result independent of set/way layout, which
// the byte-determinism of fault overlays depends on.
func (c *Cache) DirtyLineAddrs() []mem.Addr {
	addrs := c.AppendDirtyLineAddrs(nil)
	slices.Sort(addrs)
	return addrs
}

// AppendDirtyLineAddrs appends the dirty-line addresses to dst in way
// order — unsorted — for a caller that asks at every crash point,
// reuses one buffer, and may need less than a full sort.
func (c *Cache) AppendDirtyLineAddrs(dst []mem.Addr) []mem.Addr {
	c.dirtyWays(func(wi int) { dst = append(dst, c.lineAddr(c.ways[wi].tag)) })
	return dst
}

// DirtyLines returns the number of dirty lines currently resident.
func (c *Cache) DirtyLines() int {
	n := 0
	c.dirtyWays(func(int) { n++ })
	return n
}
