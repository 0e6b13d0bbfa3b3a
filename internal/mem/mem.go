// Package mem provides the simulated main-memory substrate of the crash
// emulator: a heap of addressable regions, each pairing a *live* slice
// (the values the simulated CPU observes, i.e. the union of cache and
// memory contents) with a *shadow image* (the values currently persistent
// in NVM).
//
// Every element access on a region notifies an Accessor — in practice the
// cache simulator from internal/cache — with the address and size of the
// access, and the heap counts it as one memory operation, the crash
// emulator's coordinate system. When the cache evicts or flushes a dirty
// line it asks the heap to write the line back, and the heap copies the
// covered byte range from the live slice into the image. When the
// emulated machine crashes, the cache is discarded and the image alone
// is the recovery state, exactly as on real NVM hardware with volatile
// caches.
//
// A region holds 8-byte elements of one type, float64 or int64, and that
// type is known only here: writebacks, restarts, snapshots, checkpoints
// and undo logs see every region as raw 8-byte words (Region's word
// methods).
//
// The correctness of this metadata-only design rests on a single-core
// write-back cache invariant: a resident line always holds the most
// recent value of every byte it covers, so materializing a writeback from
// the live slice is exact. See ARCHITECTURE.md, "Metadata-only cache
// exactness".
package mem

import (
	"fmt"
	"slices"
	"sort"
	"unsafe"
)

// LineSize is the cache-line granularity of the simulated machine, in
// bytes. All region allocations are line aligned so a line never spans
// two regions.
const LineSize = 64

// Addr is a simulated physical address.
type Addr uint64

// LineAddr returns the address of the cache line containing a.
func (a Addr) LineAddr() Addr { return a &^ (LineSize - 1) }

// Accessor observes every load and store issued against heap regions.
// The cache simulator implements Accessor; a no-op implementation is used
// for un-instrumented (native) execution.
type Accessor interface {
	// Load records a read of size bytes at address a.
	Load(a Addr, size int)
	// Store records a write of size bytes at address a.
	Store(a Addr, size int)
	// LoadEach records the 8-byte reads at base+8*idx[k] for each k in
	// order: exactly what one Load(base+8*idx[k], 8) per index records.
	LoadEach(base Addr, idx []int64)
}

// NullAccessor ignores all accesses. It is the accessor of a heap whose
// workload runs natively (no cache simulation, no crash consistency).
type NullAccessor struct{}

// Load implements Accessor.
func (NullAccessor) Load(Addr, int) {}

// Store implements Accessor.
func (NullAccessor) Store(Addr, int) {}

// LoadEach implements Accessor.
func (NullAccessor) LoadEach(Addr, []int64) {}

// Kind is a region's element type, the one fact about a region that its
// words do not show.
type Kind int64

const (
	KindF64 Kind = iota // float64 elements (F64)
	KindI64             // int64 elements (I64)
)

// Region is the element-type-free view of a heap region: the typed
// accessors are on F64 and I64, and everything here sees the region as
// Len raw 8-byte words.
type Region interface {
	// Name returns the diagnostic name given at allocation.
	Name() string
	// Base returns the first simulated address of the region.
	Base() Addr
	// Bytes returns the size of the region in bytes.
	Bytes() int
	// Len returns the number of elements (words).
	Len() int
	// Addr returns the simulated address of element i.
	Addr(i int) Addr
	// Kind returns the element type the region was allocated with.
	Kind() Kind
	// LoadWords is LoadRange over raw words: the same operation, access
	// and (absent) version bump.
	LoadWords(i, n int) []uint64
	// StoreWords is StoreRange over raw words.
	StoreWords(i, n int) []uint64
	// LiveWords is Live over raw words: no access, a live version bump.
	LiveWords() []uint64
	// ImageWords is Image over raw words: no access, image version bumps.
	ImageWords() []uint64
}

// vers carries a region's mutation counters. Every path that can
// mutate the live slice bumps liveVer, every path that can mutate the
// image bumps imageVer — including the raw Live/Image accessors, which
// hand out mutable slices (a returned slice may be written later, so
// the bump is conservative: false-dirty costs a copy, a missed
// mutation would corrupt copy-on-write sharing). An unchanged counter
// therefore proves unchanged contents; a changed counter proves
// nothing.
type vers struct {
	liveVer  uint64
	imageVer uint64
}

// Heap allocates regions at line-aligned simulated addresses and routes
// writebacks from the cache simulator to the owning region.
type Heap struct {
	next    Addr
	regions []Region // sorted by base address
	// spans[i] is regions[i]'s untyped half, which is all the heap's own
	// work (lookups, writebacks, snapshots, restores) touches.
	spans []*span
	acc   Accessor
	// lastFind (with its bounds denormalized into plain values, so the
	// memo check costs two compares) memoizes the region of the most
	// recent lookup: writebacks stream through one region at a time, so
	// the binary search is almost always skipped.
	lastFind *span
	lastBase Addr
	lastEnd  Addr
	// imageVer counts image mutations (writebacks and image syncs). Two
	// observations of an untouched heap see the same version, so a
	// version compare is an O(1) "images unchanged since then" test —
	// the fast path behind campaign snapshot deduplication. A changed
	// version does not imply changed contents (a writeback may store the
	// value already present), so equal-content detection still needs a
	// full compare.
	imageVer uint64
	// imgMarks memoizes, per region, the last RestoreImages source entry
	// so repeated restores of the same snapshot skip untouched regions.
	imgMarks []imgMark
	// verBase is where the version counters of a new region start: 0 on
	// a new heap, past every counter the previous generation reached
	// after a Reset, so no counter ever repeats a value it had before.
	verBase uint64
	// spare is the previous generation's region storage, handed to
	// same-length allocations of this one (see Reset).
	spare []storage
	// ops counts simulated memory operations: one per region accessor
	// call (a range counts once, a gather once per index). When ops
	// reaches stopAt, onStop runs before that operation reaches acc —
	// the hook the crash emulator schedules its op-count points on. A
	// stopAt below 1 never fires.
	ops    int64
	stopAt int64
	onStop func()
}

// NewHeap returns an empty heap whose accesses are observed by acc.
// A nil acc is replaced by NullAccessor.
func NewHeap(acc Accessor) *Heap {
	if acc == nil {
		acc = NullAccessor{}
	}
	// Leave address 0 unmapped so a zero Addr is recognizably invalid.
	return &Heap{next: LineSize, acc: acc}
}

// NewHeapWith returns an empty heap observed by the accessor newAcc
// builds for it — the cache simulator, which writes dirty lines back
// into the heap it observes, needs the heap before the heap can have it.
func NewHeapWith(newAcc func(*Heap) Accessor) *Heap {
	h := NewHeap(nil)
	h.SetAccessor(newAcc(h))
	return h
}

// SetAccessor replaces the heap's access observer.
func (h *Heap) SetAccessor(acc Accessor) {
	if acc == nil {
		acc = NullAccessor{}
	}
	h.acc = acc
}

// Accessor returns the heap's current access observer.
func (h *Heap) Accessor() Accessor { return h.acc }

// Ops returns the number of memory operations counted since the last
// ResetOps.
func (h *Heap) Ops() int64 { return h.ops }

// ResetOps restarts the operation count from zero.
func (h *Heap) ResetOps() { h.ops = 0 }

// SetStop schedules fn to run when the operation count reaches at: after
// the count, before that operation reaches the accessor. fn may panic or
// call SetStop again; at < 1 clears the stop.
func (h *Heap) SetStop(at int64, fn func()) { h.stopAt, h.onStop = at, fn }

// count counts one memory operation.
func (h *Heap) count() {
	h.ops++
	if h.ops == h.stopAt {
		h.onStop()
	}
}

// gather counts and bills the 8-byte loads at base+8*idx[k], one
// operation per index, handing the accessor one LoadEach per stretch
// between stops: the loads before a stop reach it, then the stop fires,
// then the load it fired on.
func (h *Heap) gather(base Addr, idx []int64) {
	for len(idx) > 0 {
		k := h.stopAt - h.ops - 1 // idx[k] is the stopping operation
		if k < 0 || k >= int64(len(idx)) {
			h.ops += int64(len(idx))
			h.acc.LoadEach(base, idx)
			return
		}
		if k > 0 {
			h.ops += k
			h.acc.LoadEach(base, idx[:k])
		}
		h.count()
		h.acc.Load(base+Addr(8*idx[k]), 8)
		idx = idx[k+1:]
	}
}

// reserve claims size bytes (rounded up to a whole number of lines) and
// returns the base address.
func (h *Heap) reserve(size int) Addr {
	if size < 0 {
		panic("mem: negative allocation")
	}
	base := h.next
	rounded := (Addr(size) + LineSize - 1) &^ (LineSize - 1)
	if rounded == 0 {
		rounded = LineSize
	}
	h.next += rounded
	return base
}

// Writeback copies the byte range [a, a+size) from the live data into the
// NVM image of the owning region(s). It is called by the cache simulator
// when a dirty line is evicted or flushed. Ranges that fall outside any
// region (e.g. a line padding tail) are ignored harmlessly.
func (h *Heap) Writeback(a Addr, size int) {
	h.imageVer++
	for size > 0 {
		s := h.find(a)
		if s == nil {
			return
		}
		// find has primed lastBase/lastEnd with s's bounds.
		off := int(a - h.lastBase)
		n := min(size, int(h.lastEnd-a))
		s.writeback(off, n)
		a += Addr(n)
		size -= n
	}
}

// find returns the region containing address a, or nil, leaving the
// region's bounds in lastBase/lastEnd.
func (h *Heap) find(a Addr) *span {
	if s := h.lastFind; s != nil && a >= h.lastBase && a < h.lastEnd {
		return s
	}
	i := sort.Search(len(h.spans), func(i int) bool { return h.spans[i].base > a })
	if i == 0 {
		return nil
	}
	s := h.spans[i-1]
	end := s.base + Addr(s.Bytes())
	if a >= end {
		return nil
	}
	h.lastFind, h.lastBase, h.lastEnd = s, s.base, end
	return s
}

// word returns the region holding the 8-byte-aligned address a and a's
// word index in it, or nil when a is unaligned or unmapped.
func (h *Heap) word(a Addr) (*span, int) {
	if a%8 != 0 {
		return nil, 0
	}
	s := h.find(a)
	if s == nil {
		return nil, 0
	}
	return s, int(a-s.base) / 8
}

// RestartFromImage models a process restart after a crash: every region's
// live slice is overwritten with its NVM image, discarding all values
// that existed only in volatile state.
func (h *Heap) RestartFromImage() {
	for _, s := range h.spans {
		s.restore()
	}
}

// SyncAllImages forces every region's image to equal its live data. It is
// used to establish initial conditions (the paper assumes the input state
// — matrix, right-hand side, grids — is persistent before the run).
func (h *Heap) SyncAllImages() {
	h.imageVer++
	for _, s := range h.spans {
		s.syncImage()
	}
}

// ImageVersion returns the heap's image-mutation counter; see the
// imageVer field for the compare semantics.
func (h *Heap) ImageVersion() uint64 { return h.imageVer }

// Regions returns the allocated regions in address order.
func (h *Heap) Regions() []Region { return h.regions }

// ImageWord returns the persistent-image word at 8-byte-aligned address
// a as raw bits, or ok=false when a is unaligned or unmapped. It reads
// the image directly, without charging a simulated access or bumping
// version counters: fault-model overlays are computed from pre-crash
// state and must not perturb copy-on-write snapshot sharing.
func (h *Heap) ImageWord(a Addr) (uint64, bool) {
	s, i := h.word(a)
	if s == nil {
		return 0, false
	}
	return s.image[i], true
}

// LiveWord returns the live word at 8-byte-aligned address a as raw
// bits, or ok=false when a is unaligned or unmapped. Like ImageWord it
// observes without charging an access or bumping counters.
func (h *Heap) LiveWord(a Addr) (uint64, bool) {
	s, i := h.word(a)
	if s == nil {
		return 0, false
	}
	return s.live[i], true
}

// LineWords reads the cache line at line-aligned address a in one region
// lookup: the live and image values of its mapped words, as raw bits, land
// in live[:n] and image[:n], and n is returned. Regions are line aligned,
// so a line belongs to one region and its mapped words are a prefix — n
// is short of a full line only on a region's padded tail, and 0 when a is
// unaligned or unmapped. Like LiveWord and ImageWord it observes without
// charging an access or bumping counters.
func (h *Heap) LineWords(a Addr, live, image *[LineSize / 8]uint64) int {
	if a%LineSize != 0 {
		return 0
	}
	s := h.find(a)
	if s == nil {
		return 0
	}
	i := int(a-s.base) / 8
	copy(image[:], s.image[i:])
	return copy(live[:], s.live[i:])
}

// LiveVersion returns the live-mutation counter of region i (in
// Regions order). An unchanged counter proves the region's live words
// unchanged; a changed one proves nothing (see vers).
func (h *Heap) LiveVersion(i int) uint64 { return h.spans[i].liveVer }

// CopyLive copies region i's live words from element off on into dst as
// raw bits and returns how many it copied: min(len(dst), the elements
// past off). Like LiveWord it observes without charging an access or
// bumping counters.
func (h *Heap) CopyLive(dst []uint64, i, off int) int {
	return copy(dst, h.spans[i].live[off:])
}

// StorePersistWord overwrites both the live and image word at
// 8-byte-aligned address a with the raw bits w, reporting whether a was
// mapped. It is the post-crash primitive fault models use to rewrite
// what "actually persisted" (a torn or reordered line, a flipped bit):
// after a crash live equals image, so both copies must move together.
// The owning region's version counters are bumped exactly like a
// writeback followed by a restart, so copy-on-write snapshot sharing
// and restore memoization stay sound.
func (h *Heap) StorePersistWord(a Addr, w uint64) bool {
	s, i := h.word(a)
	if s == nil {
		return false
	}
	s.live[i], s.image[i] = w, w
	s.liveVer++
	s.imageVer++
	s.stamps[i/ChunkWords] = s.imageVer
	h.imageVer++
	return true
}

// span is the element-type-free half of a region: its identity, its
// version counters and its live and image contents as raw words. It
// implements Region for both element types.
type span struct {
	vers
	h           *Heap
	name        string
	base        Addr
	kind        Kind
	live, image []uint64 // word views of the typed slices (wordsOf)
	// stamps[c] is imageVer as of the last mutation of image chunk c
	// (words [c*ChunkWords, (c+1)*ChunkWords)) alone, allStamp as of the
	// last mutation of every chunk at once; a chunk's stamp is the later
	// of the two (stamp). A chunk whose stamp is not newer than a
	// capture's version is unchanged since that capture.
	stamps   []uint64
	allStamp uint64
}

// stamp returns chunk c's stamp.
func (s *span) stamp(c int) uint64 { return max(s.stamps[c], s.allStamp) }

// ChunkWords is the copy-on-write granularity of image captures: a
// capture copies the 512-word chunks of a region that changed and shares
// the rest with the previous capture.
const ChunkWords = 512

// chunks returns the number of image chunks of an n-word region.
func chunks(n int) int { return (n + ChunkWords - 1) / ChunkWords }

// word is the element types a region may hold. Each is 8 bytes with
// uint64's alignment, which is what lets wordsOf view them as words.
type word interface{ float64 | int64 }

// wordsOf views s as raw words. The view aliases s bit for bit: a write
// through either is seen through the other.
func wordsOf[T word](s []T) []uint64 {
	return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(s))), len(s))
}

// typedOf is wordsOf's inverse: it views raw words as elements of T.
func typedOf[T word](w []uint64) []T {
	return unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(w))), len(w))
}

// Words is a region of 8-byte elements of type T. Its typed accessors
// and its Region word methods are two views of the same operations:
// LoadRange and LoadWords, say, count, bill and bump alike.
type Words[T word] struct {
	span
	live, image []T // the memory span.live and span.image view as words
}

// F64 is a region of float64 elements.
type F64 = Words[float64]

// I64 is a region of int64 elements.
type I64 = Words[int64]

// AllocF64 allocates a float64 region of n elements with both live and
// image contents zeroed.
func (h *Heap) AllocF64(name string, n int) *F64 { return alloc[float64](h, name, n, KindF64) }

// AllocI64 allocates an int64 region of n elements with both live and
// image contents zeroed.
func (h *Heap) AllocI64(name string, n int) *I64 { return alloc[int64](h, name, n, KindI64) }

func alloc[T word](h *Heap, name string, n int, kind Kind) *Words[T] {
	base := h.reserve(8 * n)
	st := h.take(n)
	r := &Words[T]{live: typedOf[T](st.live), image: typedOf[T](st.image)}
	r.span = span{
		vers: vers{liveVer: h.verBase, imageVer: h.verBase},
		h:    h, name: name, base: base, kind: kind,
		live: st.live, image: st.image, stamps: st.stamps, allStamp: h.verBase,
	}
	h.regions = append(h.regions, r)
	h.spans = append(h.spans, &r.span)
	return r
}

// storage is one region's backing memory: live and image words and the
// image chunk stamps.
type storage struct {
	live, image, stamps []uint64
}

// take returns zeroed storage for an n-word region, reusing the previous
// generation's storage of a region of the same length when there is one.
// Reused stamps are left as they are: each is at most a counter of the
// old generation, below the new region's allStamp.
func (h *Heap) take(n int) storage {
	for i, st := range h.spare {
		if st.live != nil && len(st.live) == n {
			h.spare[i] = storage{}
			clear(st.live)
			clear(st.image)
			return st
		}
	}
	return storage{live: make([]uint64, n), image: make([]uint64, n), stamps: make([]uint64, chunks(n))}
}

// Reset empties the heap for a new generation of regions: the state
// NewHeap builds, still observed by the same accessor. It keeps three
// promises.
//
//   - No version counter repeats a value: every region of the new
//     generation starts its counters, and its chunk stamps, past every
//     counter of the old one, so a capture taken before the Reset never
//     shares a chunk with, or is proven equal by version to, one taken
//     after it.
//   - Region handles of the old generation are poisoned: their slices
//     and heap are nil, so a stale access panics, before it is counted
//     or billed, instead of reading the new generation's data.
//   - The old generation's storage serves same-length allocations of the
//     new one (zeroed first); storage the new generation does not take
//     is dropped at the following Reset.
func (h *Heap) Reset() {
	base := h.imageVer
	for _, s := range h.spans {
		base = max(base, s.liveVer, s.imageVer)
	}
	h.imageVer, h.verBase = base+1, base+1
	clear(h.spare)
	h.spare = h.spare[:0]
	for i, s := range h.spans {
		h.spare = append(h.spare, storage{live: s.live, image: s.image, stamps: s.stamps})
		h.regions[i].(interface{ poison() }).poison()
	}
	clear(h.regions)
	clear(h.spans)
	h.regions, h.spans = h.regions[:0], h.spans[:0]
	clear(h.imgMarks)
	h.imgMarks = h.imgMarks[:0]
	h.next = LineSize
	h.lastFind, h.lastBase, h.lastEnd = nil, 0, 0
	h.ops, h.stopAt, h.onStop = 0, 0, nil
}

// DropSpare lets go of the storage the last Reset kept for the new
// generation and that it has not taken.
func (h *Heap) DropSpare() {
	clear(h.spare)
	h.spare = h.spare[:0]
}

// poison detaches the region from its heap and storage (Heap.Reset).
func (r *Words[T]) poison() {
	r.h, r.span.live, r.span.image, r.stamps = nil, nil, nil, nil
	r.live, r.image = nil, nil
}

// Name implements Region.
func (s *span) Name() string { return s.name }

// Base implements Region.
func (s *span) Base() Addr { return s.base }

// Bytes implements Region.
func (s *span) Bytes() int { return 8 * len(s.live) }

// Len implements Region.
func (s *span) Len() int { return len(s.live) }

// Addr implements Region.
func (s *span) Addr(i int) Addr { return s.base + Addr(8*i) }

// Kind implements Region.
func (s *span) Kind() Kind { return s.kind }

// At performs a simulated load of element i and returns its live value.
func (r *Words[T]) At(i int) T {
	h := r.h
	h.count()
	h.acc.Load(r.Addr(i), 8)
	return r.live[i]
}

// Set performs a simulated store of v into element i.
func (r *Words[T]) Set(i int, v T) {
	h := r.h
	h.count()
	h.acc.Store(r.Addr(i), 8)
	r.liveVer++
	r.live[i] = v
}

// Gather performs a simulated load of element off+idx[k] for each k in
// order and appends the live values to dst. Its operations, access
// stream and panics are those of one At per index — including an index
// out of range, which panics after its wild load was billed — but the
// loads reach the accessor in one LoadEach call per stretch between
// heap stops.
func (r *Words[T]) Gather(dst []T, off int, idx []int64) []T {
	live, base := r.live, r.Addr(off)
	for k, j := range idx {
		i := off + int(j)
		if uint(i) >= uint(len(live)) {
			r.h.gather(base, idx[:k+1])
			return append(dst, live[i])
		}
		dst = append(dst, live[i])
	}
	r.h.gather(base, idx)
	return dst
}

// LoadRange performs a simulated load of elements [i, i+n) and returns
// the live sub-slice. The caller must treat the result as read-only,
// with one sanctioned exception (the register-blocking pattern): it may
// accumulate into the slice provided it issues a covering StoreRange
// after the mutation completes. A store notification must never precede
// the mutation it covers if other region accesses can intervene —
// an eviction in that window would freeze partial values into the NVM
// image with no later writeback.
//
// All the range accessors take the sub-slice before billing the
// simulated access: a range that is out of bounds (recovery code may
// compute one from a corrupted persistent image) must panic at once,
// not after the simulator has walked every line of it.
func (r *Words[T]) LoadRange(i, n int) []T {
	s := r.live[i : i+n]
	r.load(i, n)
	return s
}

// StoreRange performs a simulated store over elements [i, i+n) and
// returns the live sub-slice for the caller to fill.
func (r *Words[T]) StoreRange(i, n int) []T {
	s := r.live[i : i+n]
	r.store(i, n)
	return s
}

// LoadWords implements Region.
func (s *span) LoadWords(i, n int) []uint64 {
	w := s.live[i : i+n]
	s.load(i, n)
	return w
}

// StoreWords implements Region.
func (s *span) StoreWords(i, n int) []uint64 {
	w := s.live[i : i+n]
	s.store(i, n)
	return w
}

// load counts and bills a load of elements [i, i+n); an empty range is
// free.
func (s *span) load(i, n int) {
	if n > 0 {
		h := s.h
		h.count()
		h.acc.Load(s.Addr(i), 8*n)
	}
}

// store counts and bills a store over elements [i, i+n) and bumps the
// live version; an empty range is not billed.
func (s *span) store(i, n int) {
	if n > 0 {
		h := s.h
		h.count()
		h.acc.Store(s.Addr(i), 8*n)
	}
	s.liveVer++
}

// Image returns the persistent NVM image of the region. Recovery code
// reads this after a crash; it must not be mutated except through
// writebacks and restores.
func (r *Words[T]) Image() []T {
	r.ImageWords()
	return r.image
}

// Live returns the live slice without charging a simulated access. It is
// intended for test assertions and result extraction after a run.
func (r *Words[T]) Live() []T {
	r.LiveWords()
	return r.live
}

// ImageWords implements Region.
func (s *span) ImageWords() []uint64 {
	s.imageVer++
	s.allStamp = s.imageVer
	s.h.imageVer++
	return s.image
}

// LiveWords implements Region.
func (s *span) LiveWords() []uint64 {
	s.liveVer++
	return s.live
}

// writeback copies bytes [off, off+n) from live to image.
func (s *span) writeback(off, n int) {
	lo, hi := off/8, min((off+n+7)/8, len(s.live))
	s.imageVer++
	copy(s.image[lo:hi], s.live[lo:hi])
	for c := lo / ChunkWords; c*ChunkWords < hi; c++ {
		s.stamps[c] = s.imageVer
	}
}

// restore copies the whole image into the live slice (restart).
func (s *span) restore() {
	s.liveVer++
	copy(s.live, s.image)
}

// syncImage copies the whole live slice into the image.
func (s *span) syncImage() {
	s.imageVer++
	s.allStamp = s.imageVer
	copy(s.image, s.live)
}

// String aids debugging.
func (h *Heap) String() string {
	return fmt.Sprintf("mem.Heap{regions=%d, next=%#x}", len(h.regions), h.next)
}

// hashSeed starts every content-hash chain of this package.
const hashSeed uint64 = 14695981039346656037

// HashWord folds the 64-bit word v into the running content hash h with
// one multiply-xorshift round. Content hashes are dedup prefilters only
// — every Equal they gate goes on to compare contents — so the mix needs
// to spread differing words, not resist an adversary, and it runs once
// per word of every image a crash capture copies.
func HashWord(h, v uint64) uint64 {
	h = (h ^ v) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}

// ImageState is a copy-on-write snapshot of every region's persistent
// image — the only heap state a crashed machine restarts from. Entries
// are immutable once created and are shared between successive
// snapshots of the same heap at two levels: SnapshotImages reuses the
// previous snapshot's entry for any region whose image version has not
// moved, and within a region that did change it copies only the
// ChunkWords-word chunks mutated since the previous snapshot, sharing
// the others. Capturing a crash point that persisted little since the
// last one therefore copies little more than what actually changed.
type ImageState struct {
	src     *Heap
	regions []*imageRegion
	hash    uint64
}

// imageRegion is one region's image words as ChunkWords-word chunks; ver
// is the region's image version at capture time and hash chains the
// chunk hashes. An imageRegion is never mutated after SnapshotImages
// returns it.
type imageRegion struct {
	chunks []imageChunk
	ver    uint64
	hash   uint64
}

// imageChunk is one chunk of image words with its content hash (a
// HashWord chain). Chunks shared between captures share words.
type imageChunk struct {
	words []uint64
	hash  uint64
}

// same reports whether two chunks are one shared chunk.
func (c imageChunk) same(d imageChunk) bool {
	return len(c.words) == len(d.words) && unsafe.SliceData(c.words) == unsafe.SliceData(d.words)
}

// shares reports whether a region entry e of a previous capture can
// lend chunks to s: the same number of chunks of the same lengths. Which
// chunks it lends is the stamps' decision.
func (s *span) shares(e *imageRegion) bool {
	if len(e.chunks) != len(s.stamps) {
		return false
	}
	last := len(e.chunks) - 1
	return last < 0 || len(e.chunks[last].words) == len(s.image)-last*ChunkWords
}

// SnapshotImages captures the persistent images of all regions. If prev
// is a snapshot of the same heap, any region whose image version is
// unchanged since prev shares prev's entry instead of copying, and a
// changed region shares every chunk whose stamp is not newer than prev's
// entry (the version counters and stamps are moved by every
// image-mutating path, so an unmoved one proves unchanged contents).
func (h *Heap) SnapshotImages(prev *ImageState) *ImageState {
	st := &ImageState{src: h, regions: make([]*imageRegion, len(h.spans))}
	share := prev != nil && prev.src == h && len(prev.regions) <= len(h.spans)
	hash := hashSeed
	for i, s := range h.spans {
		var pe *imageRegion
		if share && i < len(prev.regions) {
			pe = prev.regions[i]
			if pe.ver == s.imageVer {
				st.regions[i] = pe
				hash = HashWord(hash, pe.hash)
				continue
			}
			if !s.shares(pe) {
				pe = nil
			}
		}
		// One buffer holds every chunk this capture copies.
		n := 0
		for c := range s.stamps {
			if pe == nil || s.stamp(c) > pe.ver {
				n += min(ChunkWords, len(s.image)-c*ChunkWords)
			}
		}
		buf := make([]uint64, n)
		e := &imageRegion{chunks: make([]imageChunk, len(s.stamps)), ver: s.imageVer, hash: hashSeed}
		for c := range s.stamps {
			if pe != nil && s.stamp(c) <= pe.ver {
				e.chunks[c] = pe.chunks[c]
			} else {
				w := s.image[c*ChunkWords : min((c+1)*ChunkWords, len(s.image))]
				k := copy(buf, w)
				ch := imageChunk{words: buf[:k:k], hash: hashSeed}
				buf = buf[k:]
				for _, x := range ch.words {
					ch.hash = HashWord(ch.hash, x)
				}
				e.chunks[c] = ch
			}
			e.hash = HashWord(e.hash, e.chunks[c].hash)
		}
		st.regions[i] = e
		hash = HashWord(hash, e.hash)
	}
	st.hash = hash
	return st
}

// imgMark records which ImageState entry a region was last restored
// from, plus the version counters observed immediately after that
// restore. A later restore from the same (immutable) entry with unmoved
// counters is a provable no-op and is skipped.
type imgMark struct {
	entry    *imageRegion
	liveVer  uint64
	imageVer uint64
}

// RestoreImages overwrites every region's live AND image contents from
// st, the post-crash restart state: it folds RestartFromImage into the
// restore, leaving live == image == the snapshot. The heap must have
// the identical allocation history as the heap st was captured from —
// which may be a different heap instance (a fork machine built by
// re-running the same construction code); a region count or length
// mismatch panics.
//
// Restores are memoized per region: restoring the same snapshot onto an
// untouched region costs two counter compares instead of two copies,
// which makes replaying many crash points against one shared prefix
// nearly free when consecutive points share image state.
func (h *Heap) RestoreImages(st *ImageState) {
	if len(st.regions) != len(h.spans) {
		panic(fmt.Sprintf("mem: restore of %d-region image state onto %d-region heap",
			len(st.regions), len(h.spans)))
	}
	if len(h.imgMarks) != len(h.spans) {
		h.imgMarks = slices.Grow(h.imgMarks[:0], len(h.spans))[:len(h.spans)]
		clear(h.imgMarks)
	}
	for i, e := range st.regions {
		s := h.spans[i]
		mk := &h.imgMarks[i]
		if mk.entry == e && mk.liveVer == s.liveVer && mk.imageVer == s.imageVer {
			continue
		}
		if !s.shares(e) {
			panic(fmt.Sprintf("mem: image restore length mismatch on %q", s.name))
		}
		for c, ch := range e.chunks {
			copy(s.live[c*ChunkWords:], ch.words)
			copy(s.image[c*ChunkWords:], ch.words)
		}
		s.liveVer++
		s.imageVer++
		s.allStamp = s.imageVer
		*mk = imgMark{entry: e, liveVer: s.liveVer, imageVer: s.imageVer}
	}
	h.imageVer++
}

// Hash returns a hash over the per-region content hashes, a
// cheap prefilter for Equal-based deduplication.
func (a *ImageState) Hash() uint64 { return a.hash }

// Equal reports whether two image snapshots are bit-identical. Shared
// entries and chunks, and same-heap same-version entries, are proven
// equal without touching the data; everything else falls back to a hash
// compare and then a word compare.
func (a *ImageState) Equal(b *ImageState) bool {
	if a == b {
		return true
	}
	if len(a.regions) != len(b.regions) {
		return false
	}
	sameSrc := a.src == b.src
	for i, ra := range a.regions {
		rb := b.regions[i]
		if ra == rb || (sameSrc && ra.ver == rb.ver) {
			continue
		}
		if ra.hash != rb.hash || len(ra.chunks) != len(rb.chunks) {
			return false
		}
		for c, ca := range ra.chunks {
			cb := rb.chunks[c]
			if ca.same(cb) {
				continue
			}
			if ca.hash != cb.hash || !slices.Equal(ca.words, cb.words) {
				return false
			}
		}
	}
	return true
}
