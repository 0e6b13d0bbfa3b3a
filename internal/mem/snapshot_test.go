package mem

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// captureWords reassembles a capture's words, region by region.
func captureWords(st *ImageState) [][]uint64 {
	out := make([][]uint64, len(st.regions))
	for i, e := range st.regions {
		for _, c := range e.chunks {
			out[i] = append(out[i], c.words...)
		}
		if out[i] == nil {
			out[i] = []uint64{}
		}
	}
	return out
}

// imagesOf is the whole-copy reference capture: every region's image.
func imagesOf(h *Heap) [][]uint64 {
	out := make([][]uint64, len(h.spans))
	for i, s := range h.spans {
		out[i] = slices.Clone(s.image)
		if out[i] == nil {
			out[i] = []uint64{}
		}
	}
	return out
}

func equalImages(a, b [][]uint64) bool {
	return slices.EqualFunc(a, b, func(x, y []uint64) bool { return slices.Equal(x, y) })
}

// chunkSet is the set of chunk buffers a capture holds.
func chunkSet(st *ImageState) map[*uint64]bool {
	set := map[*uint64]bool{}
	for _, e := range st.regions {
		for _, c := range e.chunks {
			if len(c.words) > 0 {
				set[unsafe.SliceData(c.words)] = true
			}
		}
	}
	return set
}

// TestChunkedImagesMatchWholeCopy drives a heap through random image
// mutations — writebacks, StorePersistWord, ImageWords, SyncAllImages,
// RestoreImages and Reset — capturing along the way with random prev
// captures, and holds every capture to a whole-copy reference: its words
// are the image at capture time, Equal agrees with equality of the
// references, and Equal implies equal Hash.
func TestChunkedImagesMatchWholeCopy(t *testing.T) {
	shapes := [][]int{
		{1, 511, 512, 513, 1500, 2048},
		{8, 1030, 3000},
	}
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := NewHeap(nil)
		shape := 0
		var regions []*F64
		alloc := func() {
			regions = regions[:0]
			for k, n := range shapes[shape] {
				regions = append(regions, h.AllocF64(fmt.Sprintf("r%d", k), n))
			}
		}
		alloc()
		type capture struct {
			st    *ImageState
			ref   [][]uint64
			shape int
			gen   int
		}
		var caps []capture
		gen := 0
		for step := 0; step < 400; step++ {
			r := regions[rng.Intn(len(regions))]
			i := rng.Intn(r.Len())
			switch op := rng.Intn(20); {
			case op < 6: // live store, then maybe its writeback
				r.live[i] = rng.NormFloat64()
				r.liveVer++
				if op < 4 {
					h.Writeback(r.Addr(i).LineAddr(), LineSize)
				}
			case op < 8: // a multi-line writeback
				n := min(r.Bytes()-8*i, 8*(1+rng.Intn(1200)))
				h.Writeback(r.Addr(i), n)
			case op < 10:
				h.StorePersistWord(r.Addr(i), rng.Uint64())
			case op == 10:
				r.ImageWords()[i] = rng.Uint64()
			case op == 11:
				h.SyncAllImages()
			case op == 12 && len(caps) > 0:
				c := caps[rng.Intn(len(caps))]
				if c.shape == shape {
					h.RestoreImages(c.st)
					if !equalImages(imagesOf(h), c.ref) {
						t.Fatalf("seed %d step %d: restore does not reproduce the capture", seed, step)
					}
				}
			case op == 13 && rng.Intn(4) == 0:
				h.Reset()
				gen++
				shape = rng.Intn(len(shapes))
				alloc()
			default:
				var prev *ImageState
				switch {
				case len(caps) == 0:
				case rng.Intn(4) == 0:
					prev = caps[rng.Intn(len(caps))].st
				default:
					prev = caps[len(caps)-1].st
				}
				st := h.SnapshotImages(prev)
				ref := imagesOf(h)
				if !equalImages(captureWords(st), ref) {
					t.Fatalf("seed %d step %d: captured words differ from the image", seed, step)
				}
				caps = append(caps, capture{st, ref, shape, gen})
			}
		}
		for a := range caps {
			for b := range caps {
				x, y := caps[a], caps[b]
				eq, want := x.st.Equal(y.st), equalImages(x.ref, y.ref)
				if eq != want {
					t.Fatalf("seed %d: captures %d and %d (generations %d, %d): Equal %v, references equal %v",
						seed, a, b, x.gen, y.gen, eq, want)
				}
				if eq && x.st.Hash() != y.st.Hash() {
					t.Fatalf("seed %d: captures %d and %d are Equal with different hashes", seed, a, b)
				}
			}
		}
	}
}

// TestResetPoisonsRegions: a region handle from before a Reset panics
// on use, before its access reaches the new generation's accessor or op
// count, and the new generation's regions are zeroed.
func TestResetPoisonsRegions(t *testing.T) {
	rec := &recordingAccessor{}
	h := NewHeap(rec)
	f := h.AllocF64("f", 600)
	q := h.AllocI64("q", 16)
	f.Set(3, 1.5)
	q.Set(2, 7)
	h.SyncAllImages()
	h.Reset()
	g := h.AllocF64("g", 600) // takes f's storage
	p := h.AllocI64("p", 16)  // takes q's
	if g.Base() != f.Base() || p.Base() != q.Base() {
		t.Fatalf("a Reset heap allocates at %#x, %#x; a new one at %#x, %#x", g.Base(), p.Base(), f.Base(), q.Base())
	}
	if slices.ContainsFunc(g.live, func(v float64) bool { return v != 0 }) ||
		slices.ContainsFunc(g.image, func(v float64) bool { return v != 0 }) ||
		slices.ContainsFunc(p.live, func(v int64) bool { return v != 0 }) ||
		slices.ContainsFunc(p.image, func(v int64) bool { return v != 0 }) {
		t.Fatal("reused storage is not zeroed")
	}
	ops, accesses := h.Ops(), len(rec.loads)+len(rec.stores)
	for _, tc := range []struct {
		name string
		use  func()
	}{
		{"At", func() { f.At(3) }},
		{"Set", func() { f.Set(3, 2) }},
		{"LoadRange", func() { f.LoadRange(0, 4) }},
		{"StoreRange", func() { q.StoreRange(0, 4) }},
		{"Gather", func() { f.Gather(nil, 0, []int64{1, 2}) }},
		{"Image", func() { _ = f.Image()[0] }},
		{"ImageWords", func() { q.ImageWords() }},
		{"Live", func() { _ = q.Live()[0] }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("stale %s did not panic", tc.name)
				}
			}()
			tc.use()
		}()
	}
	if h.Ops() != ops || len(rec.loads)+len(rec.stores) != accesses {
		t.Errorf("stale handles reached the new generation: ops %d -> %d, accesses %d -> %d",
			ops, h.Ops(), accesses, len(rec.loads)+len(rec.stores))
	}
	if g.live[3] != 0 || p.live[2] != 0 {
		t.Error("stale handles wrote the new generation's regions")
	}
}

// TestSnapshotAfterResetNeverShares: a Reset heap replaying the same
// allocations and mutations reaches the same counter values a rewinding
// Reset would have repeated, so a capture taken after it must not share
// a chunk with a capture taken before it, and must not be proven equal
// to it by version: only a content compare may decide.
func TestSnapshotAfterResetNeverShares(t *testing.T) {
	run := func(h *Heap, v float64) {
		a := h.AllocF64("a", 1500)
		b := h.AllocI64("b", 40)
		a.live[700] = v
		h.Writeback(a.Addr(700).LineAddr(), LineSize)
		h.StorePersistWord(b.Addr(3), 9)
	}
	for _, same := range []bool{false, true} {
		h := NewHeap(nil)
		run(h, 1)
		before := h.SnapshotImages(nil)
		h.Reset()
		v := 2.0
		if same {
			v = 1
		}
		run(h, v)
		after := h.SnapshotImages(before)
		for p := range chunkSet(after) {
			if chunkSet(before)[p] {
				t.Fatalf("same content %v: a capture after Reset shares a chunk with one before it", same)
			}
		}
		if got := after.Equal(before); got != same || before.Equal(after) != same {
			t.Errorf("same content %v: Equal across a Reset = %v", same, got)
		}
	}
}

// TestSnapshotCopiesOnlyChangedChunks: a capture after one line's
// writeback copies that line's chunk, shares every other chunk with the
// previous capture, and allocates that chunk plus headers.
func TestSnapshotCopiesOnlyChangedChunks(t *testing.T) {
	h, r := snapshotBenchHeap()
	prev := h.SnapshotImages(nil)
	r[1].live[1000] = 3
	h.Writeback(r[1].Addr(1000).LineAddr(), LineSize)
	st := h.SnapshotImages(prev)
	old := chunkSet(prev)
	fresh := 0
	for p := range chunkSet(st) {
		if !old[p] {
			fresh++
		}
	}
	if fresh != 1 {
		t.Errorf("capture after one writeback copied %d chunks, want 1", fresh)
	}
	if n := snapshotAllocs(h, r); n > snapshotMaxAllocs {
		t.Errorf("capture after one writeback: %v allocs, want at most %d", n, snapshotMaxAllocs)
	}
}

// snapshotMaxAllocs bounds a capture after one writeback: the ImageState,
// its region table, the changed region's entry and chunk table, and the
// one copied chunk.
const snapshotMaxAllocs = 5

// snapshotBenchHeap is a heap of four 4096-word regions, 32 chunks.
func snapshotBenchHeap() (*Heap, []*F64) {
	h := NewHeap(nil)
	var r []*F64
	for k := 0; k < 4; k++ {
		r = append(r, h.AllocF64(fmt.Sprintf("r%d", k), 4096))
	}
	return h, r
}

// snapshotAllocs is the allocations of one line writeback plus a capture
// against the previous one.
func snapshotAllocs(h *Heap, r []*F64) float64 {
	prev := h.SnapshotImages(nil)
	i := 0
	return testing.AllocsPerRun(50, func() {
		i = (i + 8) % r[2].Len()
		r[2].live[i]++
		h.Writeback(r[2].Addr(i), LineSize)
		prev = h.SnapshotImages(prev)
	})
}

// TestResetReusesStorage: after one warm-up generation, a Reset and
// the same allocations allocate the region handles and nothing else.
func TestResetReusesStorage(t *testing.T) {
	h := NewHeap(nil)
	gen := func() {
		h.Reset()
		h.AllocF64("a", 3000)
		h.AllocI64("b", 17)
		h.AllocF64("c", 1)
	}
	gen()
	if n := testing.AllocsPerRun(20, gen); n != 3 {
		t.Errorf("Reset plus three allocations: %v allocs, want 3 (the handles)", n)
	}
}

// TestDropSpare: after DropSpare, the same allocations allocate their
// storage anew: live words, image words and stamps besides the handle.
func TestDropSpare(t *testing.T) {
	h := NewHeap(nil)
	h.AllocF64("a", 3000)
	if n := testing.AllocsPerRun(20, func() {
		h.Reset()
		h.DropSpare()
		h.AllocF64("a", 3000)
	}); n != 4 {
		t.Errorf("Reset, DropSpare and one allocation: %v allocs, want 4", n)
	}
}

// BenchmarkSnapshotImages times a crash capture after one line's
// writeback, the steady state of a recording run, and checks its
// allocations: one copied chunk plus headers.
func BenchmarkSnapshotImages(b *testing.B) {
	h, r := snapshotBenchHeap()
	prev := h.SnapshotImages(nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := (8 * i) % r[2].Len()
		r[2].live[j]++
		h.Writeback(r[2].Addr(j), LineSize)
		prev = h.SnapshotImages(prev)
	}
	b.StopTimer()
	if n := snapshotAllocs(h, r); n > snapshotMaxAllocs {
		b.Fatalf("%v allocs per capture after one writeback, want at most %d", n, snapshotMaxAllocs)
	}
}
