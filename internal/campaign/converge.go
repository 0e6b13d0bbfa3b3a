package campaign

import (
	"math"
	"slices"

	"adcc/internal/cache"
	"adcc/internal/crash"
	"adcc/internal/engine"
	"adcc/internal/mem"
	"adcc/internal/nvm"
)

// This file stops a recovery fork once it rejoins the recording run.
//
// A fork resumes after recovery at an iteration boundary, and many forks
// are, a few iterations later, in exactly the state the uncrashed
// recording run had at the same boundary. From there the rest of the
// fork is the recording's suffix, which has been simulated once already.
// The recording run therefore keeps its state at main-trigger boundaries
// (a golden state), and each fork compares itself against those at its
// own boundaries. A fork content-equal to a kept golden state stops;
// its costs are the fork's so far plus the recording's from that
// boundary to the end, and its verdict is the recording's, which passed
// Verify when the cell was profiled. A stop therefore moves no byte of
// any report, store or row: it only skips work whose outcome is known.
//
// The compared state is everything the remainder of a run and Verify
// read: every region's live words, the LLC in canonical form (resident
// lines in LRU order with dirty bits, the prefetcher streams rotated to
// the next replacement slot, the write-combining memo), the DRAM page
// tier in LRU order, the CPU's fractional-nanosecond carry, the aux
// state, and the workload's engine.Boundary words. NVM image words are
// left out: the remainder only writes them, through writebacks and
// flushes whose cost does not depend on them. A workload that does not
// implement engine.Boundary never stops.
//
// A fork's boundary goes through three filters, cheapest first: the
// counter interval since its previous boundary (ops, clock, LLC events)
// must equal the interval ending at a kept golden boundary; a hash of its
// live words must match; and a content compare of all of the state
// must pass. The hashes are prefilters only.
//
// Keeping golden state and checking forks cost host time in proportion
// to the words they touch, so both run on a deterministic budget: a keep
// or a check touching n words must be paid for by n*opsPerKWord/1024
// simulated ops, in advance — the first one waits for as many ops as
// the state has words to touch (its live words on the recording side,
// the first kept boundary's size on a fork), each later one until the
// previous one is paid off. Golden state lives in a worker-reused arena,
// copy-on-write per chunk against the previous kept boundary, under a
// fixed memory budget; past it the recording keeps nothing more and
// forks resume to the end.

// checkOpsPerKWord is the check budget: the simulated ops that must pass
// for every 1024 words a golden keep or a fork check touched before the
// next one runs. One simulated op costs the host about as much as
// hashing or comparing a few words, so this bounds the overhead of
// checks that fail to about a tenth of the simulation they ride on.
const checkOpsPerKWord = 256

// chunkWords is the copy-on-write granularity of kept golden state, the
// same as the image captures'.
const chunkWords = mem.ChunkWords

// The arena's memory budget: fixed-size blocks, allocated on first use
// and kept for the next cell.
const (
	arenaBlockWords  = 1 << 15
	arenaBudgetWords = 1 << 19
)

// counters are the cumulative simulated counters a boundary is stamped
// with: the run's op count, the clock and the LLC's event counts.
type counters struct {
	ops, clock int64
	llc        cache.Stats
}

func readCounters(m *crash.Machine, ops int64) counters {
	return counters{ops: ops, clock: m.Clock.Now(), llc: m.LLC.Stats()}
}

// sub returns c - d field by field.
func (c counters) sub(d counters) counters {
	a, b := c.llc, d.llc
	return counters{
		ops:   c.ops - d.ops,
		clock: c.clock - d.clock,
		llc: cache.Stats{
			Loads:      a.Loads - b.Loads,
			Stores:     a.Stores - b.Stores,
			LineHits:   a.LineHits - b.LineHits,
			LineMisses: a.LineMisses - b.LineMisses,
			Writebacks: a.Writebacks - b.Writebacks,
			Flushes:    a.Flushes - b.Flushes,
			FlushDirty: a.FlushDirty - b.FlushDirty,
			Prefetched: a.Prefetched - b.Prefetched,
		},
	}
}

// hashSeed starts every hash chain of the kept state.
const hashSeed uint64 = 14695981039346656037

// hashWords folds words into one content hash.
func hashWords(words []uint64) uint64 {
	h := hashSeed
	for _, w := range words {
		h = mem.HashWord(h, w)
	}
	return h
}

// chunk is one copy-on-write piece of kept state; h is the content hash
// of a live-word chunk (unused for the LLC and page tier).
type chunk struct {
	w []uint64
	h uint64
}

// span indexes a run of an arena's chunk list.
type span struct{ lo, hi int }

// liveRegion is one region's live words at a kept boundary: its chunks,
// the region's live version when they were copied, and their hash.
type liveRegion struct {
	ver, hash uint64
	chunks    span
}

// auxEntry is one aux component's snapshot at a kept boundary, with the
// component's version when it was taken.
type auxEntry struct {
	snap crash.AuxSnapshot
	ver  uint64
}

// goldBoundary is one kept boundary of the recording run.
type goldBoundary struct {
	at, interval counters
	// misc holds the Boundary words and the machine's scalar state (see
	// appendScalars).
	misc []uint64
	// nextStream is the prefetcher's rotation at the boundary. rotSafe
	// reports that no stream lookup tied from here to the end of the
	// run, so a fork with equal rotated streams behaves the same under
	// any rotation; otherwise the rotations must be equal too.
	nextStream int
	ties       int64
	rotSafe    bool
	llc, tier  span
	regions    span // into arena.regions
	aux        span // into arena.aux
	liveHash   uint64
	// sameInterval is the previous kept boundary with an equal interval,
	// -1 for none.
	sameInterval int
}

// arena holds a cell's golden state and the scratch its forks check
// with. Cells reuse arenas (takeArena, release), so steady-state cells
// allocate nothing for either.
type arena struct {
	blocks [][]uint64
	block  int // blocks[block] is being filled, from off; -1 before the first
	off    int

	bounds     []goldBoundary
	firstWords int              // words the first kept boundary touched
	byInterval map[counters]int // latest kept boundary per interval
	chunks     []chunk
	regions    []liveRegion
	aux        []auxEntry
	end        counters

	// auxSnaps are the aux snapshots kept for this cell, auxDonors the
	// earlier cells' ones, recycled as SnapshotAux buffers; forkAux is
	// the forks' scratch snapshot per aux component.
	auxSnaps, auxDonors, forkAux []crash.AuxSnapshot

	// Scratch: misc words, a canonical LLC or page tier, one chunk of
	// live words, and the forks' per-region memo.
	misc, canon, canon2, buf []uint64
	memo                     []regionMemo
}

var arenas freeList[*arena]

// takeArena returns an arena for one cell.
func takeArena() *arena {
	if a, ok := arenas.take(); ok {
		return a
	}
	return &arena{block: -1, byInterval: map[counters]int{}, buf: make([]uint64, chunkWords)}
}

// release resets the arena and returns it to the pool, which keeps one
// per CPU.
func (a *arena) release() {
	a.block, a.off = -1, 0
	a.bounds = a.bounds[:0]
	clear(a.byInterval)
	clear(a.chunks)
	a.chunks = a.chunks[:0]
	a.regions = a.regions[:0]
	clear(a.aux)
	a.aux = a.aux[:0]
	a.auxDonors = append(a.auxDonors, a.auxSnaps...)
	clear(a.auxSnaps)
	a.auxSnaps = a.auxSnaps[:0]
	// The memo describes one fork machine; the next cell has another.
	clear(a.memo)
	arenas.put(a)
}

// alloc returns n words of arena memory, or nil past the budget.
func (a *arena) alloc(n int) []uint64 {
	if n > arenaBlockWords {
		return nil
	}
	if a.block < 0 || a.off+n > arenaBlockWords {
		if a.block+1 == len(a.blocks) {
			if (len(a.blocks)+1)*arenaBlockWords > arenaBudgetWords {
				return nil
			}
			a.blocks = append(a.blocks, make([]uint64, arenaBlockWords))
		}
		a.block, a.off = a.block+1, 0
	}
	s := a.blocks[a.block][a.off : a.off+n : a.off+n]
	a.off += n
	return s
}

// store appends words to the chunk list as chunks, sharing each with the
// same-index chunk of prev when the contents are equal. It returns the
// new span, and false past the memory budget.
func (a *arena) store(words []uint64, prev span) (span, bool) {
	s := span{lo: len(a.chunks)}
	for k := 0; k*chunkWords < len(words); k++ {
		w := words[k*chunkWords : min((k+1)*chunkWords, len(words))]
		if p := prev.lo + k; p < prev.hi && slices.Equal(a.chunks[p].w, w) {
			a.chunks = append(a.chunks, a.chunks[p])
			continue
		}
		dst := a.alloc(len(w))
		if dst == nil {
			return s, false
		}
		copy(dst, w)
		a.chunks = append(a.chunks, chunk{w: dst})
	}
	s.hi = len(a.chunks)
	return s, true
}

// equal reports whether words equals the chunks of s.
func (a *arena) equal(words []uint64, s span) bool {
	for _, c := range a.chunks[s.lo:s.hi] {
		if len(words) < len(c.w) || !slices.Equal(c.w, words[:len(c.w)]) {
			return false
		}
		words = words[len(c.w):]
	}
	return len(words) == 0
}

// appendScalars appends the machine's scalar state: the CPU carry, the
// region count, and the canonical prefetcher.
func appendScalars(dst []uint64, m *crash.Machine) []uint64 {
	dst = append(dst, math.Float64bits(m.CPU.Remainder()), uint64(len(m.Heap.Regions())))
	return m.LLC.AppendPrefetch(dst)
}

// appendTier appends the DRAM page tier in canonical form, if the
// machine has one.
func appendTier(dst []uint64, m *crash.Machine) []uint64 {
	if h, ok := m.Mem.(*nvm.Hetero); ok {
		return h.AppendLRU(dst)
	}
	return dst
}

// regionLen returns the element count of region i.
func regionLen(h *mem.Heap, i int) int { return h.Regions()[i].Bytes() / 8 }

// recorder keeps golden state at the main-trigger boundaries of a
// cell's recording run.
type recorder struct {
	a           *arena
	m           *crash.Machine
	em          *crash.Emulator
	w           engine.Boundary
	opsPerKWord int64

	prev   counters // at the previous boundary, or the run's start
	credit int64    // budget: ops passed minus ops owed for words touched
	full   bool     // the arena's budget ran out
	last   int      // the last kept boundary, -1 for none
}

func newRecorder(a *arena, m *crash.Machine, em *crash.Emulator, w engine.Boundary, opsPerKWord int64) *recorder {
	words := 0
	for i := range m.Heap.Regions() {
		words += regionLen(m.Heap, i)
	}
	return &recorder{
		a: a, m: m, em: em, w: w, opsPerKWord: opsPerKWord,
		prev: readCounters(m, 0), credit: -owed(words, opsPerKWord), last: -1,
	}
}

// owed is the ops a keep or check touching words must be paid for by.
func owed(words int, opsPerKWord int64) int64 { return int64(words) * opsPerKWord / 1024 }

// boundary runs at every main-trigger firing of the recording run.
func (r *recorder) boundary() {
	now := readCounters(r.m, r.em.OpCount())
	iv := now.sub(r.prev)
	r.prev = now
	r.credit += iv.ops
	if r.full || r.credit < 0 {
		return
	}
	r.credit -= owed(r.keep(now, iv), r.opsPerKWord)
}

// keep stores the machine's state as a golden boundary and returns the
// words it touched. A boundary the workload cannot describe, or one past
// the memory budget, is not kept.
func (r *recorder) keep(now, iv counters) int {
	a, m := r.a, r.m
	var prev goldBoundary
	if r.last >= 0 {
		prev = a.bounds[r.last]
	}
	nChunks, nRegions, nAux := len(a.chunks), len(a.regions), len(a.aux)
	fail := func() int {
		r.full = true
		clear(a.chunks[nChunks:])
		a.chunks, a.regions, a.aux = a.chunks[:nChunks], a.regions[:nRegions], a.aux[:nAux]
		return 0
	}

	misc, ok := r.w.Boundary(a.misc[:0])
	if !ok {
		a.misc = misc
		return len(misc)
	}
	misc = appendScalars(misc, m)
	a.misc = misc
	b := goldBoundary{
		at: now, interval: iv, nextStream: m.LLC.NextStream(), ties: m.LLC.StreamTies(),
		sameInterval: -1,
	}
	if b.misc = a.alloc(len(misc)); b.misc == nil {
		return fail()
	}
	copy(b.misc, misc)
	touched := len(misc)

	a.canon = m.LLC.AppendLRU(a.canon[:0])
	touched += len(a.canon)
	if b.llc, ok = a.store(a.canon, prev.llc); !ok {
		return fail()
	}
	a.canon = appendTier(a.canon[:0], m)
	touched += len(a.canon)
	if b.tier, ok = a.store(a.canon, prev.tier); !ok {
		return fail()
	}

	// Live words: a region whose live version has not moved since the
	// previous kept boundary shares its entry; a changed one is copied
	// chunk by chunk, sharing the chunks that compare equal.
	h := m.Heap
	nreg := len(h.Regions())
	b.regions.lo = len(a.regions)
	live := hashSeed
	for i := 0; i < nreg; i++ {
		ver := h.LiveVersion(i)
		var old liveRegion
		haveOld := r.last >= 0 && i < prev.regions.hi-prev.regions.lo
		if haveOld {
			old = a.regions[prev.regions.lo+i]
			if old.ver == ver {
				a.regions = append(a.regions, old)
				live = mem.HashWord(live, old.hash)
				continue
			}
		}
		reg := liveRegion{ver: ver, hash: hashSeed, chunks: span{lo: len(a.chunks)}}
		n := regionLen(h, i)
		for k, off := 0, 0; off < n; k, off = k+1, off+chunkWords {
			buf := a.buf[:h.CopyLive(a.buf, i, off)]
			touched += len(buf)
			c := chunk{h: hashWords(buf)}
			if p := old.chunks.lo + k; haveOld && p < old.chunks.hi && a.chunks[p].h == c.h && slices.Equal(a.chunks[p].w, buf) {
				c = a.chunks[p]
			} else {
				if c.w = a.alloc(len(buf)); c.w == nil {
					return fail()
				}
				copy(c.w, buf)
			}
			a.chunks = append(a.chunks, c)
			reg.hash = mem.HashWord(reg.hash, c.h)
		}
		reg.chunks.hi = len(a.chunks)
		a.regions = append(a.regions, reg)
		live = mem.HashWord(live, reg.hash)
	}
	b.regions.hi = len(a.regions)
	b.liveHash = live

	// Aux state: an unchanged version shares the previous snapshot.
	b.aux.lo = len(a.aux)
	for i, x := range m.Aux() {
		ver := x.AuxVersion()
		if r.last >= 0 && i < prev.aux.hi-prev.aux.lo && a.aux[prev.aux.lo+i].ver == ver {
			a.aux = append(a.aux, a.aux[prev.aux.lo+i])
			continue
		}
		var donor crash.AuxSnapshot
		if n := len(a.auxDonors); n > 0 {
			donor, a.auxDonors = a.auxDonors[n-1], a.auxDonors[:n-1]
		}
		snap := x.SnapshotAux(donor)
		a.auxSnaps = append(a.auxSnaps, snap)
		a.aux = append(a.aux, auxEntry{snap: snap, ver: ver})
	}
	b.aux.hi = len(a.aux)

	if k, ok := a.byInterval[iv]; ok {
		b.sameInterval = k
	}
	if len(a.bounds) == 0 {
		a.firstWords = touched
	}
	a.byInterval[iv] = len(a.bounds)
	a.bounds = append(a.bounds, b)
	r.last = len(a.bounds) - 1
	return touched
}

// finish stamps the end of the recording run and decides, per kept
// boundary, whether rotated prefetcher streams suffice.
func (r *recorder) finish() {
	r.a.end = readCounters(r.m, r.em.OpCount())
	ties := r.m.LLC.StreamTies()
	for i := range r.a.bounds {
		r.a.bounds[i].rotSafe = r.a.bounds[i].ties == ties
	}
}

// regionMemo caches, per region of a fork machine, the hash of its live
// words at a live version, and the last kept region (by chunk span) its
// words compared equal to at a live version. Live versions only move
// forward, so both stay exact across the classes a forker runs.
type regionMemo struct {
	hashVer, hash uint64
	hashed        bool
	eqVer         uint64
	eqLo          int
	equal         bool
}

// checker compares a fork against the kept golden boundaries at each of
// its main-trigger boundaries and halts it on a match.
type checker struct {
	name        string // the main trigger
	a           *arena
	m           *crash.Machine
	em          *crash.Emulator
	w           engine.Boundary
	opsPerKWord int64
	anyInterval bool // see forkKnobs

	prev   counters
	credit int64
	// stop is the matched golden boundary, -1 while the fork runs.
	stop int
}

// begin arms the checker for one resume starting at the machine's
// current clock.
func (c *checker) begin() {
	c.prev = readCounters(c.m, 0)
	c.credit = -owed(c.a.firstWords, c.opsPerKWord)
	c.stop = -1
	if len(c.a.memo) < len(c.m.Heap.Regions()) {
		c.a.memo = append(c.a.memo, make([]regionMemo, len(c.m.Heap.Regions())-len(c.a.memo))...)
	}
}

// boundary runs at every main-trigger firing of a fork's resume.
func (c *checker) boundary() {
	now := readCounters(c.m, c.em.OpCount())
	iv := now.sub(c.prev)
	c.prev = now
	c.credit += iv.ops
	k, ok := c.a.byInterval[iv]
	if c.anyInterval {
		k, ok = len(c.a.bounds)-1, true
	}
	if !ok || c.credit < 0 {
		return
	}
	k, touched := c.match(k)
	c.credit -= owed(touched, c.opsPerKWord)
	if k >= 0 {
		c.stop = k
		c.em.Halt()
	}
}

// match compares the fork against kept boundary k and the earlier ones
// with the same interval. It returns the first that matches (-1 for
// none) and the words it touched.
func (c *checker) match(k int) (int, int) {
	a, m := c.a, c.m
	misc, ok := c.w.Boundary(a.misc[:0])
	a.misc = misc
	if !ok {
		return -1, len(misc)
	}
	misc = appendScalars(misc, m)
	a.misc = misc
	touched := len(misc)
	var llc, tier []uint64
	var live uint64
	haveLLC, haveLive := false, false
	for ; k >= 0; k = c.next(k) {
		b := &a.bounds[k]
		if !slices.Equal(misc, b.misc) || !b.rotSafe && m.LLC.NextStream() != b.nextStream {
			continue
		}
		if !haveLLC {
			a.canon = m.LLC.AppendLRU(a.canon[:0])
			a.canon2 = appendTier(a.canon2[:0], m)
			llc, tier, haveLLC = a.canon, a.canon2, true
			touched += len(llc) + len(tier)
		}
		if !a.equal(llc, b.llc) || !a.equal(tier, b.tier) {
			continue
		}
		if !haveLive {
			var n int
			live, n = c.liveHash()
			touched += n
			haveLive = true
		}
		if live != b.liveHash {
			continue
		}
		eq, n := c.liveEqual(b)
		touched += n
		if eq && c.auxEqual(b) {
			return k, touched
		}
	}
	return -1, touched
}

// next returns the kept boundary to try after k.
func (c *checker) next(k int) int {
	if c.anyInterval {
		return k - 1
	}
	return c.a.bounds[k].sameInterval
}

// liveHash hashes the fork's live words the way keep does, reusing the
// hash of every region whose live version has not moved since it was
// last hashed. It returns the hash and the words it read.
func (c *checker) liveHash() (uint64, int) {
	h := c.m.Heap
	live, touched := hashSeed, 0
	for i := range h.Regions() {
		mm := &c.a.memo[i]
		if ver := h.LiveVersion(i); !mm.hashed || mm.hashVer != ver {
			rh, n := hashSeed, regionLen(h, i)
			for off := 0; off < n; off += chunkWords {
				buf := c.a.buf[:h.CopyLive(c.a.buf, i, off)]
				touched += len(buf)
				rh = mem.HashWord(rh, hashWords(buf))
			}
			mm.hashVer, mm.hash, mm.hashed = ver, rh, true
		}
		live = mem.HashWord(live, mm.hash)
	}
	return live, touched
}

// liveEqual compares the fork's live words with kept boundary b's,
// skipping regions proven equal to the same kept chunks at the same
// live version. It returns the verdict and the words it read.
func (c *checker) liveEqual(b *goldBoundary) (bool, int) {
	a, h := c.a, c.m.Heap
	touched := 0
	for i, reg := range a.regions[b.regions.lo:b.regions.hi] {
		mm := &a.memo[i]
		ver := h.LiveVersion(i)
		if mm.equal && mm.eqVer == ver && mm.eqLo == reg.chunks.lo {
			continue
		}
		off := 0
		for _, ch := range a.chunks[reg.chunks.lo:reg.chunks.hi] {
			buf := a.buf[:h.CopyLive(a.buf, i, off)]
			touched += len(buf)
			if !slices.Equal(buf, ch.w) {
				return false, touched
			}
			off += len(ch.w)
		}
		if off != regionLen(h, i) {
			return false, touched
		}
		mm.equal, mm.eqVer, mm.eqLo = true, ver, reg.chunks.lo
	}
	return true, touched
}

// auxEqual compares the fork's aux state with kept boundary b's.
func (c *checker) auxEqual(b *goldBoundary) bool {
	a := c.a
	carriers := c.m.Aux()
	if len(carriers) != b.aux.hi-b.aux.lo {
		return false
	}
	for len(a.forkAux) < len(carriers) {
		a.forkAux = append(a.forkAux, nil)
	}
	for i, x := range carriers {
		a.forkAux[i] = x.SnapshotAux(a.forkAux[i])
		if !a.aux[b.aux.lo+i].snap.EqualAux(a.forkAux[i]) {
			return false
		}
	}
	return true
}
