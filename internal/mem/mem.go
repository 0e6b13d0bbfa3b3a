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
// The correctness of this metadata-only design rests on a single-core
// write-back cache invariant: a resident line always holds the most
// recent value of every byte it covers, so materializing a writeback from
// the live slice is exact. See ARCHITECTURE.md, "Metadata-only cache
// exactness".
package mem

import (
	"fmt"
	"math"
	"sort"
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

// Region is the common interface of all typed memory regions.
type Region interface {
	// Name returns the diagnostic name given at allocation.
	Name() string
	// Base returns the first simulated address of the region.
	Base() Addr
	// Bytes returns the size of the region in bytes.
	Bytes() int

	// writeback copies [off, off+n) bytes from live to image.
	writeback(off, n int)
	// restore copies the whole image into the live slice (restart).
	restore()
	// syncImage copies the whole live slice into the image.
	syncImage()
	// versions returns the region's mutation counters.
	versions() *vers
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

func (v *vers) versions() *vers { return v }

// Heap allocates regions at line-aligned simulated addresses and routes
// writebacks from the cache simulator to the owning region.
type Heap struct {
	next    Addr
	regions []Region // sorted by base address
	// bases[i] is regions[i].Base(): find searches plain addresses
	// instead of calling through the Region interface per probe.
	bases []Addr
	acc   Accessor
	// lastFind (with its bounds denormalized into plain values, so the
	// memo check costs two compares and no interface calls) memoizes
	// the region of the most recent lookup: writebacks stream through
	// one region at a time, so the binary search is almost always
	// skipped.
	lastFind Region
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

func (h *Heap) addRegion(r Region) {
	h.regions = append(h.regions, r)
	h.bases = append(h.bases, r.Base())
}

// Writeback copies the byte range [a, a+size) from the live data into the
// NVM image of the owning region(s). It is called by the cache simulator
// when a dirty line is evicted or flushed. Ranges that fall outside any
// region (e.g. a line padding tail) are ignored harmlessly.
func (h *Heap) Writeback(a Addr, size int) {
	h.imageVer++
	for size > 0 {
		r := h.find(a)
		if r == nil {
			return
		}
		// find has primed lastBase/lastEnd with r's bounds.
		off := int(a - h.lastBase)
		n := min(size, int(h.lastEnd-a))
		r.writeback(off, n)
		a += Addr(n)
		size -= n
	}
}

// find returns the region containing address a, or nil, leaving the
// region's bounds in lastBase/lastEnd.
func (h *Heap) find(a Addr) Region {
	if r := h.lastFind; r != nil && a >= h.lastBase && a < h.lastEnd {
		return r
	}
	i := sort.Search(len(h.bases), func(i int) bool { return h.bases[i] > a })
	if i == 0 {
		return nil
	}
	r, base := h.regions[i-1], h.bases[i-1]
	end := base + Addr(r.Bytes())
	if a >= end {
		return nil
	}
	h.lastFind, h.lastBase, h.lastEnd = r, base, end
	return r
}

// RestartFromImage models a process restart after a crash: every region's
// live slice is overwritten with its NVM image, discarding all values
// that existed only in volatile state.
func (h *Heap) RestartFromImage() {
	for _, r := range h.regions {
		r.restore()
	}
}

// SyncAllImages forces every region's image to equal its live data. It is
// used to establish initial conditions (the paper assumes the input state
// — matrix, right-hand side, grids — is persistent before the run).
func (h *Heap) SyncAllImages() {
	h.imageVer++
	for _, r := range h.regions {
		r.syncImage()
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
	if a%8 != 0 {
		return 0, false
	}
	r := h.find(a)
	if r == nil {
		return 0, false
	}
	i := int(a-h.lastBase) / 8
	switch r := r.(type) {
	case *F64:
		return math.Float64bits(r.image[i]), true
	case *I64:
		return uint64(r.image[i]), true
	}
	return 0, false
}

// LiveWord returns the live word at 8-byte-aligned address a as raw
// bits, or ok=false when a is unaligned or unmapped. Like ImageWord it
// observes without charging an access or bumping counters.
func (h *Heap) LiveWord(a Addr) (uint64, bool) {
	if a%8 != 0 {
		return 0, false
	}
	r := h.find(a)
	if r == nil {
		return 0, false
	}
	i := int(a-h.lastBase) / 8
	switch r := r.(type) {
	case *F64:
		return math.Float64bits(r.live[i]), true
	case *I64:
		return uint64(r.live[i]), true
	}
	return 0, false
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
	r := h.find(a)
	if r == nil {
		return 0
	}
	i := int(a-h.lastBase) / 8
	switch r := r.(type) {
	case *F64:
		n := min(LineSize/8, len(r.live)-i)
		for k := 0; k < n; k++ {
			live[k] = math.Float64bits(r.live[i+k])
			image[k] = math.Float64bits(r.image[i+k])
		}
		return n
	case *I64:
		n := min(LineSize/8, len(r.live)-i)
		for k := 0; k < n; k++ {
			live[k] = uint64(r.live[i+k])
			image[k] = uint64(r.image[i+k])
		}
		return n
	}
	return 0
}

// LiveVersion returns the live-mutation counter of region i (in
// Regions order). An unchanged counter proves the region's live words
// unchanged; a changed one proves nothing (see vers).
func (h *Heap) LiveVersion(i int) uint64 { return h.regions[i].versions().liveVer }

// CopyLive copies region i's live words from element off on into dst as
// raw bits and returns how many it copied: min(len(dst), the elements
// past off). Like LiveWord it observes without charging an access or
// bumping counters.
func (h *Heap) CopyLive(dst []uint64, i, off int) int {
	switch r := h.regions[i].(type) {
	case *F64:
		src := r.live[off:]
		n := min(len(dst), len(src))
		for k, v := range src[:n] {
			dst[k] = math.Float64bits(v)
		}
		return n
	case *I64:
		src := r.live[off:]
		n := min(len(dst), len(src))
		for k, v := range src[:n] {
			dst[k] = uint64(v)
		}
		return n
	}
	panic(fmt.Sprintf("mem: cannot copy region type %T", h.regions[i]))
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
	if a%8 != 0 {
		return false
	}
	r := h.find(a)
	if r == nil {
		return false
	}
	i := int(a-h.lastBase) / 8
	switch r := r.(type) {
	case *F64:
		f := math.Float64frombits(w)
		r.live[i] = f
		r.image[i] = f
	case *I64:
		r.live[i] = int64(w)
		r.image[i] = int64(w)
	default:
		return false
	}
	v := r.versions()
	v.liveVer++
	v.imageVer++
	h.imageVer++
	return true
}

// F64 is a region of float64 elements.
type F64 struct {
	vers
	h     *Heap
	name  string
	base  Addr
	live  []float64
	image []float64
}

// AllocF64 allocates a float64 region of n elements with both live and
// image contents zeroed.
func (h *Heap) AllocF64(name string, n int) *F64 {
	r := &F64{
		h:     h,
		name:  name,
		base:  h.reserve(8 * n),
		live:  make([]float64, n),
		image: make([]float64, n),
	}
	h.addRegion(r)
	return r
}

// Name implements Region.
func (r *F64) Name() string { return r.name }

// Base implements Region.
func (r *F64) Base() Addr { return r.base }

// Bytes implements Region.
func (r *F64) Bytes() int { return 8 * len(r.live) }

// Len returns the number of elements.
func (r *F64) Len() int { return len(r.live) }

// Addr returns the simulated address of element i.
func (r *F64) Addr(i int) Addr { return r.base + Addr(8*i) }

// At performs a simulated load of element i and returns its live value.
func (r *F64) At(i int) float64 {
	h := r.h
	h.count()
	h.acc.Load(r.Addr(i), 8)
	return r.live[i]
}

// Set performs a simulated store of v into element i.
func (r *F64) Set(i int, v float64) {
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
func (r *F64) Gather(dst []float64, off int, idx []int64) []float64 {
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
// All four range accessors take the sub-slice before billing the
// simulated access: a range that is out of bounds (recovery code may
// compute one from a corrupted persistent image) must panic at once,
// not after the simulator has walked every line of it.
func (r *F64) LoadRange(i, n int) []float64 {
	s := r.live[i : i+n]
	if n > 0 {
		h := r.h
		h.count()
		h.acc.Load(r.Addr(i), 8*n)
	}
	return s
}

// StoreRange performs a simulated store over elements [i, i+n) and
// returns the live sub-slice for the caller to fill.
func (r *F64) StoreRange(i, n int) []float64 {
	s := r.live[i : i+n]
	if n > 0 {
		h := r.h
		h.count()
		h.acc.Store(r.Addr(i), 8*n)
	}
	r.liveVer++
	return s
}

// Image returns the persistent NVM image of the region. Recovery code
// reads this after a crash; it must not be mutated except through
// writebacks and restores.
func (r *F64) Image() []float64 {
	r.imageVer++
	r.h.imageVer++
	return r.image
}

// Live returns the live slice without charging a simulated access. It is
// intended for test assertions and result extraction after a run.
func (r *F64) Live() []float64 {
	r.liveVer++
	return r.live
}

func (r *F64) writeback(off, n int) {
	lo := off / 8
	hi := (off + n + 7) / 8
	if hi > len(r.live) {
		hi = len(r.live)
	}
	r.imageVer++
	copy(r.image[lo:hi], r.live[lo:hi])
}

func (r *F64) restore() {
	r.liveVer++
	copy(r.live, r.image)
}

func (r *F64) syncImage() {
	r.imageVer++
	copy(r.image, r.live)
}

// I64 is a region of int64 elements.
type I64 struct {
	vers
	h     *Heap
	name  string
	base  Addr
	live  []int64
	image []int64
}

// AllocI64 allocates an int64 region of n elements with both live and
// image contents zeroed.
func (h *Heap) AllocI64(name string, n int) *I64 {
	r := &I64{
		h:     h,
		name:  name,
		base:  h.reserve(8 * n),
		live:  make([]int64, n),
		image: make([]int64, n),
	}
	h.addRegion(r)
	return r
}

// Name implements Region.
func (r *I64) Name() string { return r.name }

// Base implements Region.
func (r *I64) Base() Addr { return r.base }

// Bytes implements Region.
func (r *I64) Bytes() int { return 8 * len(r.live) }

// Len returns the number of elements.
func (r *I64) Len() int { return len(r.live) }

// Addr returns the simulated address of element i.
func (r *I64) Addr(i int) Addr { return r.base + Addr(8*i) }

// At performs a simulated load of element i and returns its live value.
func (r *I64) At(i int) int64 {
	h := r.h
	h.count()
	h.acc.Load(r.Addr(i), 8)
	return r.live[i]
}

// Set performs a simulated store of v into element i.
func (r *I64) Set(i int, v int64) {
	h := r.h
	h.count()
	h.acc.Store(r.Addr(i), 8)
	r.liveVer++
	r.live[i] = v
}

// LoadRange performs a simulated load of elements [i, i+n) and returns
// the live sub-slice. The caller must treat the result as read-only.
func (r *I64) LoadRange(i, n int) []int64 {
	s := r.live[i : i+n]
	if n > 0 {
		h := r.h
		h.count()
		h.acc.Load(r.Addr(i), 8*n)
	}
	return s
}

// StoreRange performs a simulated store over elements [i, i+n) and
// returns the live sub-slice for the caller to fill.
func (r *I64) StoreRange(i, n int) []int64 {
	s := r.live[i : i+n]
	if n > 0 {
		h := r.h
		h.count()
		h.acc.Store(r.Addr(i), 8*n)
	}
	r.liveVer++
	return s
}

// Image returns the persistent NVM image of the region.
func (r *I64) Image() []int64 {
	r.imageVer++
	r.h.imageVer++
	return r.image
}

// Live returns the live slice without charging a simulated access.
func (r *I64) Live() []int64 {
	r.liveVer++
	return r.live
}

func (r *I64) writeback(off, n int) {
	lo := off / 8
	hi := (off + n + 7) / 8
	if hi > len(r.live) {
		hi = len(r.live)
	}
	r.imageVer++
	copy(r.image[lo:hi], r.live[lo:hi])
}

func (r *I64) restore() {
	r.liveVer++
	copy(r.live, r.image)
}

func (r *I64) syncImage() {
	r.imageVer++
	copy(r.image, r.live)
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
// snapshots of the same heap: SnapshotImages reuses the previous
// snapshot's entry for any region whose image version counter has not
// moved, so capturing a crash point that persisted little since the
// last one copies only the regions that actually changed.
type ImageState struct {
	src     *Heap
	regions []*imageRegion
	hash    uint64
}

// imageRegion is one region's image copy. Exactly one of f64/i64 is
// populated (matching the region type); ver is the region's image
// version at capture time and hash is the content hash (HashWord chain).
// An imageRegion is never mutated after SnapshotImages returns it.
type imageRegion struct {
	f64  []float64
	i64  []int64
	ver  uint64
	hash uint64
}

// SnapshotImages captures the persistent images of all regions. If prev
// is a snapshot of the same heap, any region whose image version is
// unchanged since prev shares prev's entry instead of copying (the
// version counters are bumped by every image-mutating path, so an equal
// version proves equal contents).
func (h *Heap) SnapshotImages(prev *ImageState) *ImageState {
	st := &ImageState{src: h, regions: make([]*imageRegion, len(h.regions))}
	share := prev != nil && prev.src == h && len(prev.regions) <= len(h.regions)
	hash := hashSeed
	for i, r := range h.regions {
		v := r.versions()
		if share && i < len(prev.regions) && prev.regions[i].ver == v.imageVer {
			st.regions[i] = prev.regions[i]
		} else {
			e := &imageRegion{ver: v.imageVer}
			eh := hashSeed
			switch r := r.(type) {
			case *F64:
				e.f64 = append([]float64(nil), r.image...)
				for _, x := range e.f64 {
					eh = HashWord(eh, math.Float64bits(x))
				}
			case *I64:
				e.i64 = append([]int64(nil), r.image...)
				for _, x := range e.i64 {
					eh = HashWord(eh, uint64(x))
				}
			default:
				panic(fmt.Sprintf("mem: cannot snapshot region type %T", r))
			}
			e.hash = eh
			st.regions[i] = e
		}
		hash = HashWord(hash, st.regions[i].hash)
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
	if len(st.regions) != len(h.regions) {
		panic(fmt.Sprintf("mem: restore of %d-region image state onto %d-region heap",
			len(st.regions), len(h.regions)))
	}
	if len(h.imgMarks) != len(h.regions) {
		h.imgMarks = make([]imgMark, len(h.regions))
	}
	for i, e := range st.regions {
		r := h.regions[i]
		v := r.versions()
		mk := &h.imgMarks[i]
		if mk.entry == e && mk.liveVer == v.liveVer && mk.imageVer == v.imageVer {
			continue
		}
		switch r := r.(type) {
		case *F64:
			if len(e.f64) != len(r.live) {
				panic(fmt.Sprintf("mem: image restore length mismatch on %q", r.name))
			}
			copy(r.live, e.f64)
			copy(r.image, e.f64)
		case *I64:
			if len(e.i64) != len(r.live) {
				panic(fmt.Sprintf("mem: image restore length mismatch on %q", r.name))
			}
			copy(r.live, e.i64)
			copy(r.image, e.i64)
		default:
			panic(fmt.Sprintf("mem: cannot restore region type %T", r))
		}
		v.liveVer++
		v.imageVer++
		*mk = imgMark{entry: e, liveVer: v.liveVer, imageVer: v.imageVer}
	}
	h.imageVer++
}

// Hash returns a hash over the per-region content hashes, a
// cheap prefilter for Equal-based deduplication.
func (a *ImageState) Hash() uint64 { return a.hash }

// Equal reports whether two image snapshots are bit-identical. Shared
// entries and same-heap same-version entries are proven equal without
// touching the data; everything else falls back to a hash compare and
// then a content compare (floats by bit pattern).
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
		if ra.hash != rb.hash || len(ra.f64) != len(rb.f64) || len(ra.i64) != len(rb.i64) {
			return false
		}
		for j, v := range ra.f64 {
			if math.Float64bits(v) != math.Float64bits(rb.f64[j]) {
				return false
			}
		}
		for j, v := range ra.i64 {
			if v != rb.i64[j] {
				return false
			}
		}
	}
	return true
}
