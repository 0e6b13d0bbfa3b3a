package mem

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// recordingAccessor captures accesses for assertions.
type recordingAccessor struct {
	loads, stores []accessRec
}

type accessRec struct {
	a    Addr
	size int
}

func (r *recordingAccessor) Load(a Addr, size int)  { r.loads = append(r.loads, accessRec{a, size}) }
func (r *recordingAccessor) Store(a Addr, size int) { r.stores = append(r.stores, accessRec{a, size}) }
func (r *recordingAccessor) LoadEach(base Addr, idx []int64) {
	for _, j := range idx {
		r.Load(base+Addr(8*j), 8)
	}
}

func TestLineAddr(t *testing.T) {
	cases := []struct{ in, want Addr }{
		{0, 0}, {1, 0}, {63, 0}, {64, 64}, {65, 64}, {127, 64}, {128, 128},
	}
	for _, c := range cases {
		if got := c.in.LineAddr(); got != c.want {
			t.Errorf("LineAddr(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestAllocAlignment(t *testing.T) {
	h := NewHeap(nil)
	a := h.AllocF64("a", 3) // 24 bytes, should consume a whole line
	b := h.AllocF64("b", 9) // 72 bytes -> 2 lines
	c := h.AllocI64("c", 1)
	for _, r := range []Region{a, b, c} {
		if r.Base()%LineSize != 0 {
			t.Errorf("region %s base %d not line aligned", r.Name(), r.Base())
		}
	}
	if b.Base() != a.Base()+LineSize {
		t.Errorf("b base = %d, want %d", b.Base(), a.Base()+LineSize)
	}
	if c.Base() != b.Base()+2*LineSize {
		t.Errorf("c base = %d, want %d", c.Base(), b.Base()+2*LineSize)
	}
}

func TestZeroAddrUnmapped(t *testing.T) {
	h := NewHeap(nil)
	h.AllocF64("a", 4)
	if r := h.find(0); r != nil {
		t.Fatal("address 0 should not be mapped")
	}
}

func TestAccessNotification(t *testing.T) {
	rec := &recordingAccessor{}
	h := NewHeap(rec)
	r := h.AllocF64("v", 16)
	r.Set(3, 1.5)
	_ = r.At(3)
	r.LoadRange(4, 8)
	r.StoreRange(0, 2)

	if len(rec.stores) != 2 {
		t.Fatalf("stores = %d, want 2", len(rec.stores))
	}
	if rec.stores[0] != (accessRec{r.Addr(3), 8}) {
		t.Errorf("store[0] = %+v", rec.stores[0])
	}
	if rec.stores[1] != (accessRec{r.Addr(0), 16}) {
		t.Errorf("store[1] = %+v", rec.stores[1])
	}
	if len(rec.loads) != 2 {
		t.Fatalf("loads = %d, want 2", len(rec.loads))
	}
	if rec.loads[1] != (accessRec{r.Addr(4), 64}) {
		t.Errorf("load[1] = %+v", rec.loads[1])
	}
}

func TestEmptyRangeNoNotification(t *testing.T) {
	rec := &recordingAccessor{}
	h := NewHeap(rec)
	r := h.AllocF64("v", 4)
	r.LoadRange(2, 0)
	r.StoreRange(2, 0)
	if len(rec.loads)+len(rec.stores) != 0 {
		t.Fatalf("zero-length ranges generated accesses: %d loads %d stores",
			len(rec.loads), len(rec.stores))
	}
}

// TestOutOfRangeRangePanicsBeforeBilling: a range accessor handed a
// range past the region (recovery computes ranges from persistent words
// a bit flip may have corrupted) must panic before the accessor is told
// about it — billing a 2^37-element load first is what hung cg x bitflip
// campaigns.
func TestOutOfRangeRangePanicsBeforeBilling(t *testing.T) {
	rec := &recordingAccessor{}
	h := NewHeap(rec)
	f := h.AllocF64("f", 8)
	i := h.AllocI64("i", 8)
	for name, access := range map[string]func(){
		"F64.LoadRange":  func() { f.LoadRange(4, 1<<37) },
		"F64.StoreRange": func() { f.StoreRange(4, 1<<37) },
		"I64.LoadRange":  func() { i.LoadRange(4, 1<<37) },
		"I64.StoreRange": func() { i.StoreRange(4, 1<<37) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s past the region did not panic", name)
				}
			}()
			access()
		}()
	}
	if n := len(rec.loads) + len(rec.stores); n != 0 {
		t.Errorf("%d accesses were billed for ranges that do not exist", n)
	}
}

func TestWritebackCopiesLiveToImage(t *testing.T) {
	h := NewHeap(nil)
	r := h.AllocF64("v", 16)
	r.Set(0, 1.0)
	r.Set(7, 2.0)
	r.Set(8, 3.0) // second line
	if r.Image()[0] != 0 {
		t.Fatal("image updated before writeback")
	}
	// Write back only the first line.
	h.Writeback(r.Base(), LineSize)
	img := r.Image()
	if img[0] != 1.0 || img[7] != 2.0 {
		t.Fatalf("first line image = %v %v, want 1 2", img[0], img[7])
	}
	if img[8] != 0 {
		t.Fatalf("second line image = %v, want 0 (not written back)", img[8])
	}
}

func TestWritebackSpansRegions(t *testing.T) {
	h := NewHeap(nil)
	a := h.AllocF64("a", 8) // exactly one line
	b := h.AllocF64("b", 8)
	a.Set(7, 1.0)
	b.Set(0, 2.0)
	h.Writeback(a.Base(), 2*LineSize)
	if a.Image()[7] != 1.0 || b.Image()[0] != 2.0 {
		t.Fatalf("cross-region writeback failed: %v %v", a.Image()[7], b.Image()[0])
	}
}

func TestWritebackOutsideRegionsIgnored(t *testing.T) {
	h := NewHeap(nil)
	r := h.AllocF64("v", 8)
	// Past the end of all regions: must not panic.
	h.Writeback(r.Base()+Addr(r.Bytes())+4096, LineSize)
	// Before all regions (address 0 .. LineSize is unmapped).
	h.Writeback(0, LineSize)
}

func TestRestartFromImage(t *testing.T) {
	h := NewHeap(nil)
	r := h.AllocF64("v", 8)
	i := h.AllocI64("n", 1)
	r.Set(0, 42.0)
	i.Set(0, 7)
	// Only r's line reaches NVM.
	h.Writeback(r.Base(), LineSize)
	h.RestartFromImage()
	if got := r.Live()[0]; got != 42.0 {
		t.Errorf("persisted value lost on restart: %v", got)
	}
	if got := i.Live()[0]; got != 0 {
		t.Errorf("unpersisted value survived restart: %v", got)
	}
}

func TestSyncAllImages(t *testing.T) {
	h := NewHeap(nil)
	r := h.AllocF64("v", 8)
	r.Set(3, 9.0)
	h.SyncAllImages()
	if r.Image()[3] != 9.0 {
		t.Fatalf("SyncAllImages did not copy live value")
	}
}

// TestI64Region: the accessors store, load and write back elements of
// either type bit for bit, NaN payloads and -0 included.
func TestI64Region(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"I64", func(t *testing.T) {
			regionRoundTrip(t, (*Heap).AllocI64, [4]int64{-3, -1, math.MinInt64, 0x7ff0000000000001})
		}},
		{"F64", func(t *testing.T) {
			regionRoundTrip(t, (*Heap).AllocF64, [4]float64{-3, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff0000000000001)})
		}},
	} {
		t.Run(tc.name, tc.run)
	}
}

// regionRoundTrip puts vals[0] through Set and At and vals[1:] through
// StoreRange and LoadRange, then writes the region back and reads the
// image, comparing words throughout.
func regionRoundTrip[T word](t *testing.T, alloc func(*Heap, string, int) *Words[T], vals [4]T) {
	h := NewHeap(nil)
	r := alloc(h, "n", 10)
	want := wordsOf(vals[:])
	r.Set(5, vals[0])
	if got := r.At(5); bits(got) != want[0] {
		t.Fatalf("At(5) = %#x, want %#x", bits(got), want[0])
	}
	copy(r.StoreRange(0, 3), vals[1:])
	if got := wordsOf(r.LoadRange(0, 3)); !slices.Equal(got, want[1:]) {
		t.Fatalf("range roundtrip = %#x, want %#x", got, want[1:])
	}
	h.Writeback(r.Base(), r.Bytes())
	img := r.Image()
	if bits(img[5]) != want[0] || !slices.Equal(wordsOf(img[:3]), want[1:]) {
		t.Fatalf("writeback left image %#x", wordsOf(img))
	}
}

func bits[T word](v T) uint64 { return wordsOf([]T{v})[0] }

// TestWordViewVersions pins the version contract of the word views.
// Copy-on-write capture and converge's live-word memo read an unmoved
// counter as unmoved words, so a view that hands out a mutable slice
// must bump exactly like its typed twin, and the observers (CopyLive,
// LineWords, LiveWord, ImageWord) must bump nothing.
func TestWordViewVersions(t *testing.T) {
	rec := &recordingAccessor{}
	h := NewHeap(rec)
	f := h.AllocF64("f", 16)
	q := h.AllocI64("q", 16)
	// f live, f image, q live, q image, heap image, ops, accesses
	state := func() [7]uint64 {
		return [7]uint64{f.liveVer, f.imageVer, q.liveVer, q.imageVer, h.imageVer,
			uint64(h.Ops()), uint64(len(rec.loads) + len(rec.stores))}
	}
	var buf, line [LineSize / 8]uint64
	for _, tc := range []struct {
		name string
		do   func()
		want [7]uint64 // the change in state
	}{
		{"F64.Live", func() { f.Live() }, [7]uint64{1, 0, 0, 0, 0, 0, 0}},
		{"F64.LiveWords", func() { f.LiveWords() }, [7]uint64{1, 0, 0, 0, 0, 0, 0}},
		{"I64.Live", func() { q.Live() }, [7]uint64{0, 0, 1, 0, 0, 0, 0}},
		{"I64.LiveWords", func() { q.LiveWords() }, [7]uint64{0, 0, 1, 0, 0, 0, 0}},
		{"F64.Image", func() { f.Image() }, [7]uint64{0, 1, 0, 0, 1, 0, 0}},
		{"F64.ImageWords", func() { f.ImageWords() }, [7]uint64{0, 1, 0, 0, 1, 0, 0}},
		{"I64.Image", func() { q.Image() }, [7]uint64{0, 0, 0, 1, 1, 0, 0}},
		{"I64.ImageWords", func() { q.ImageWords() }, [7]uint64{0, 0, 0, 1, 1, 0, 0}},
		{"F64.LoadRange", func() { f.LoadRange(2, 3) }, [7]uint64{0, 0, 0, 0, 0, 1, 1}},
		{"F64.LoadWords", func() { f.LoadWords(2, 3) }, [7]uint64{0, 0, 0, 0, 0, 1, 1}},
		{"I64.StoreRange", func() { q.StoreRange(2, 3) }, [7]uint64{0, 0, 1, 0, 0, 1, 1}},
		{"I64.StoreWords", func() { q.StoreWords(2, 3) }, [7]uint64{0, 0, 1, 0, 0, 1, 1}},
		{"CopyLive", func() { h.CopyLive(buf[:], 0, 0); h.CopyLive(buf[:], 1, 3) }, [7]uint64{}},
		{"LineWords", func() { h.LineWords(f.Base(), &buf, &line); h.LineWords(q.Base(), &buf, &line) }, [7]uint64{}},
		{"LiveWord and ImageWord", func() { h.LiveWord(f.Addr(1)); h.ImageWord(q.Addr(1)) }, [7]uint64{}},
	} {
		before := state()
		tc.do()
		after := state()
		var got [7]uint64
		for k := range got {
			got[k] = after[k] - before[k]
		}
		if got != tc.want {
			t.Errorf("%s moved (f live, f image, q live, q image, heap image, ops, accesses) by %v, want %v", tc.name, got, tc.want)
		}
	}
	// The views alias the typed slices.
	f.LiveWords()[1] = 0x7ff0000000000001
	q.ImageWords()[1] = 1 << 63
	if bits(f.Live()[1]) != 0x7ff0000000000001 || q.Image()[1] != math.MinInt64 {
		t.Errorf("word views do not alias: f live %#x, q image %#x", bits(f.Live()[1]), q.Image()[1])
	}
}

func TestFindRegionBoundaries(t *testing.T) {
	h := NewHeap(nil)
	a := h.AllocF64("a", 8)
	b := h.AllocF64("b", 8)
	if r := h.find(a.Base()); r != &a.span {
		t.Error("find(a.Base) != a")
	}
	if r := h.find(a.Base() + Addr(a.Bytes()) - 1); r != &a.span {
		t.Error("find(last byte of a) != a")
	}
	if r := h.find(b.Base()); r != &b.span {
		t.Error("find(b.Base) != b")
	}
}

// TestFindUnmapped probes the addresses no region owns — the padded tail
// between two regions, below the first, past the last — with the memo
// primed on a neighbour each time, so both the memo check and the search
// over the base table must say no; a hit afterwards shows a miss leaves
// the memo usable.
func TestFindUnmapped(t *testing.T) {
	h := NewHeap(nil)
	a := h.AllocF64("a", 3) // 24 of its line's 64 bytes: the rest is a gap
	b := h.AllocI64("b", 8)
	c := h.AllocF64("c", 8)
	a.Live()[2], b.Live()[0] = 7, 9
	h.SyncAllImages()
	gap := a.Base() + Addr(a.Bytes())
	end := c.Base() + Addr(c.Bytes())
	for _, tc := range []struct {
		name  string
		prime *span
		at    Addr
	}{
		{"first byte of the gap", &a.span, gap},
		{"last byte of the gap", &b.span, b.Base() - 1},
		{"address 0", &a.span, 0},
		{"just past the last region", &c.span, end},
		{"far past the last region", &b.span, end + 1<<40},
		{"the top of the address space", &c.span, ^Addr(0)},
	} {
		if r := h.find(tc.prime.Base()); r != tc.prime {
			t.Fatalf("%s: priming find(%s.Base) = %v", tc.name, tc.prime.Name(), r)
		}
		if r := h.find(tc.at); r != nil {
			t.Errorf("%s: find(%#x) = %s, want nil", tc.name, tc.at, r.Name())
		}
		if r := h.find(tc.prime.Base()); r != tc.prime {
			t.Errorf("%s: find(%s.Base) after the miss = %v", tc.name, tc.prime.Name(), r)
		}
	}
	if _, ok := h.ImageWord(gap); ok {
		t.Error("ImageWord maps the gap")
	}
	if _, ok := h.ImageWord(end); ok {
		t.Error("ImageWord maps the address past the last region")
	}
	if w, ok := h.ImageWord(gap - 8); !ok || math.Float64frombits(w) != 7 {
		t.Errorf("ImageWord(last word of a) = %#x, %v", w, ok)
	}
	var live, image [LineSize / 8]uint64
	if n := h.LineWords(a.Base(), &live, &image); n != 3 {
		t.Errorf("LineWords(a) = %d words, want the 3 mapped ones", n)
	}
	if n := h.LineWords(end, &live, &image); n != 0 {
		t.Errorf("LineWords past the last region = %d words", n)
	}
	// A writeback that starts in the gap stops there.
	b.Live()[0] = 11
	h.Writeback(gap, 2*LineSize)
	if got := b.Image()[0]; got != 9 {
		t.Errorf("writeback from the gap reached b: image %d", got)
	}
}

// Property: writeback of any sub-range never changes image values outside
// the covered elements, and restoring after a full writeback is lossless.
func TestWritebackRangeProperty(t *testing.T) {
	f := func(vals []float64, offU, nU uint8) bool {
		if len(vals) == 0 {
			return true
		}
		h := NewHeap(nil)
		r := h.AllocF64("v", len(vals))
		for i, v := range vals {
			r.Set(i, v)
		}
		off := int(offU) % len(vals)
		n := int(nU) % (len(vals) - off + 1)
		h.Writeback(r.Addr(off), 8*n)
		img := r.Image()
		// Writeback is byte-range exact: covered elements synced,
		// everything else untouched (still zero). Values of zero in
		// vals are indistinguishable either way, which is fine.
		for i := range img {
			covered := i >= off && i < off+n
			if covered && img[i] != vals[i] {
				return false
			}
			if !covered && img[i] != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestLineWords: one region lookup per line must agree with the
// word-at-a-time accessors everywhere, including the padded tail of a
// region's last line and the unmapped lines around the heap, whichever
// element type the padded region holds.
func TestLineWords(t *testing.T) {
	fillF := func(r *F64) {
		for i := range r.Len() {
			r.Set(i, float64(i)+0.5)
		}
	}
	fillI := func(r *I64) {
		for i := range r.Len() {
			r.Set(i, int64(-i-1))
		}
	}
	for _, tc := range []struct {
		name  string
		alloc func(h *Heap) (tail, full Region) // 11 and 8 elements
	}{
		{"F64 tail", func(h *Heap) (Region, Region) {
			f, q := h.AllocF64("f", 11), h.AllocI64("q", 8)
			fillF(f)
			fillI(q)
			return f, q
		}},
		{"I64 tail", func(h *Heap) (Region, Region) {
			q, f := h.AllocI64("q", 11), h.AllocF64("f", 8)
			fillI(q)
			fillF(f)
			return q, f
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := NewHeap(nil)
			tail, full := tc.alloc(h) // tail's second line: 3 words mapped, 5 padding
			h.Writeback(tail.Addr(0), 16)
			h.Writeback(full.Addr(4), 8)

			for line := Addr(0); line <= full.Base()+2*LineSize; line += LineSize {
				var live, image [LineSize / 8]uint64
				n := h.LineWords(line, &live, &image)
				for i := 0; i < LineSize/8; i++ {
					a := line + Addr(8*i)
					lw, lok := h.LiveWord(a)
					iw, iok := h.ImageWord(a)
					if lok != (i < n) || iok != (i < n) {
						t.Fatalf("line %#x word %d: LineWords maps %d words, LiveWord ok=%v ImageWord ok=%v", line, i, n, lok, iok)
					}
					if i < n && (live[i] != lw || image[i] != iw) {
						t.Fatalf("line %#x word %d: LineWords (%#x, %#x), word accessors (%#x, %#x)", line, i, live[i], image[i], lw, iw)
					}
				}
			}
			var live, image [LineSize / 8]uint64
			if n := h.LineWords(tail.Base()+LineSize, &live, &image); n != 3 {
				t.Errorf("padded tail line maps %d words, want 3", n)
			}
			if n := h.LineWords(tail.Base()+8, &live, &image); n != 0 {
				t.Errorf("unaligned line address maps %d words, want 0", n)
			}
		})
	}
}

// gatherTrace is what a reader of one region observes through a heap:
// the accessor stream, the stream position at every stop, the op count,
// the values read and how the read ended.
type gatherTrace struct {
	loads []accessRec
	stops []int
	ops   int64
	vals  []float64
	fault string
}

// TestGatherMatchesAt: Gather is one At per index. Random index vectors
// with repeats — some with an index below 0 or past the region at a
// random position, some read across two heap stops, the second of which
// may panic like a crash — must yield the At loop's (addr, size) stream,
// stop instants, op count, values and panic.
func TestGatherMatchesAt(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 2000; trial++ {
		n, off := 1+rng.Intn(40), rng.Intn(4)
		idx := make([]int64, rng.Intn(30))
		for k := range idx {
			idx[k] = int64(rng.Intn(n - min(off, n-1)))
		}
		if len(idx) > 0 && rng.Intn(3) == 0 {
			wild := []int{-1, n, n + rng.Intn(1000), -1 - rng.Intn(1000)}[rng.Intn(4)]
			idx[rng.Intn(len(idx))] = int64(wild - off)
		}
		stops := []int64{1 + rng.Int63n(int64(len(idx)+2)), 0}
		stops[1] = stops[0] + 1 + rng.Int63n(int64(len(idx)+2))
		crashAtSecond := rng.Intn(2) == 0

		read := func(gather bool) gatherTrace {
			rec := &recordingAccessor{}
			h := NewHeap(rec)
			r := h.AllocF64("x", n)
			for i := range r.live {
				r.live[i] = float64(i) + 0.5
			}
			var tr gatherTrace
			var stop func()
			stop = func() {
				tr.stops = append(tr.stops, len(rec.loads))
				if len(tr.stops) == 2 && crashAtSecond {
					panic("crash")
				}
				h.SetStop(stops[len(tr.stops)%2], stop)
			}
			h.SetStop(stops[0], stop)
			func() {
				defer func() {
					if p := recover(); p != nil {
						tr.fault = fmt.Sprint(p)
					}
				}()
				if gather {
					tr.vals = r.Gather([]float64{-1}, off, idx)
					return
				}
				tr.vals = []float64{-1}
				for _, j := range idx {
					tr.vals = append(tr.vals, r.At(off+int(j)))
				}
			}()
			if tr.fault != "" {
				tr.vals = nil
			}
			tr.loads, tr.ops = rec.loads, h.Ops()
			return tr
		}
		if at, g := read(false), read(true); !reflect.DeepEqual(at, g) {
			t.Fatalf("trial %d: off %d idx %v over %d elements, stops %v (crash at second: %v)\nAt loop: %+v\nGather:  %+v",
				trial, off, idx, n, stops, crashAtSecond, at, g)
		}
	}
}
