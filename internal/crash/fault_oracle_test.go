package crash

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"adcc/internal/cache"
	"adcc/internal/mem"
)

// oracleFaultOverlay is the map-based FaultOverlay that shipped before
// the overlay was built sorted by construction, kept as the differential
// oracle: it finds the dirty lines by probing every line of the heap's
// address span (so it is independent of the cache's occupancy index as
// well), pushes each persisted word through a map with one region lookup
// per word, filters words equal to the image, and sorts. It draws from a
// fresh generator per call.
func oracleFaultOverlay(m *Machine, f FaultModel, pointSeed int64) ([]FaultWrite, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	if f.Kind == FailStop {
		return nil, nil
	}
	newRNG := func() *rand.Rand { return rand.New(rand.NewSource(faultSeed(f.Seed, pointSeed))) }
	dirtyLines := func() []mem.Addr {
		var addrs []mem.Addr
		for a := mem.Addr(0); a < oracleSpan(m); a += mem.LineSize {
			if _, dirty := m.LLC.Contains(a); dirty {
				addrs = append(addrs, a)
			}
		}
		return addrs
	}
	words := make(map[mem.Addr]uint64)
	persistLivePrefix := func(line mem.Addr, k int) {
		for i := 0; i < k; i++ {
			a := line + mem.Addr(8*i)
			if w, ok := m.Heap.LiveWord(a); ok {
				words[a] = w
			}
		}
	}
	switch f.Kind {
	case TornLine:
		dirty := dirtyLines()
		if len(dirty) == 0 {
			return nil, nil
		}
		rng := newRNG()
		line := dirty[rng.Intn(len(dirty))]
		k := f.TearWords
		if k == 0 {
			k = 1 + rng.Intn(wordsPerLine-1)
		}
		persistLivePrefix(line, k)
	case EADR:
		for _, line := range dirtyLines() {
			persistLivePrefix(line, wordsPerLine)
		}
	case ReorderWB:
		dirty := dirtyLines()
		if len(dirty) == 0 {
			return nil, nil
		}
		rng := newRNG()
		order := f.ReorderPerm
		if len(order) == 0 {
			order = rng.Perm(len(dirty))
		} else {
			for _, idx := range order {
				if idx >= len(dirty) {
					return nil, fmt.Errorf(
						"crash: reorder permutation index %d over %d undrained lines",
						idx, len(dirty))
				}
			}
		}
		drained := rng.Intn(len(order) + 1)
		for _, idx := range order[:drained] {
			persistLivePrefix(dirty[idx], wordsPerLine)
		}
	case BitFlip:
		flips := f.FlipBits
		if flips == 0 {
			flips = 1
		}
		regions := m.Heap.Regions()
		var totalWords int64
		for _, r := range regions {
			totalWords += int64(r.Bytes() / 8)
		}
		if totalWords == 0 {
			return nil, nil
		}
		rng := newRNG()
		for i := 0; i < flips; i++ {
			pos := rng.Int63n(totalWords * 64)
			wordIdx, bit := pos/64, uint(pos%64)
			var a mem.Addr
			for _, r := range regions {
				n := int64(r.Bytes() / 8)
				if wordIdx < n {
					a = r.Base() + mem.Addr(8*wordIdx)
					break
				}
				wordIdx -= n
			}
			w, ok := words[a]
			if !ok {
				w, ok = m.Heap.ImageWord(a)
				if !ok {
					continue
				}
			}
			words[a] = w ^ (1 << bit)
		}
	}
	out := make([]FaultWrite, 0, len(words))
	for a, w := range words {
		if img, ok := m.Heap.ImageWord(a); ok && img == w {
			continue
		}
		out = append(out, FaultWrite{Addr: a, Word: w})
	}
	if len(out) == 0 {
		return nil, nil
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out, nil
}

// oracleSpan is the end of the heap's address space, line padding of the
// last region included.
func oracleSpan(m *Machine) mem.Addr {
	regions := m.Heap.Regions()
	last := regions[len(regions)-1]
	return (last.Base() + mem.Addr(last.Bytes()) + mem.LineSize - 1).LineAddr()
}

// randomFaultMachine builds a small machine of either system kind with
// F64 and I64 regions whose lengths leave padded tails, then drives a
// seeded stream of stores, flushes and capacity evictions through it, so
// its cache holds a random dirty set over a partly persisted image.
func randomFaultMachine(rng *rand.Rand) *Machine {
	m := NewMachine(MachineConfig{
		System: SystemKind(rng.Intn(2)),
		Flush:  FlushInstr(rng.Intn(2)),
		Cache: cache.Config{
			SizeBytes: 32 * 64, // 32 lines: the 60-odd lines below evict
			LineBytes: 64,
			Assoc:     4,
			HitNS:     1,
		},
	})
	var f64s []*mem.F64
	var i64s []*mem.I64
	for r := 0; r < 2+rng.Intn(3); r++ {
		n := 1 + rng.Intn(90) // rarely a multiple of 8: padded tails
		if rng.Intn(2) == 0 {
			f64s = append(f64s, m.Heap.AllocF64(fmt.Sprintf("f%d", r), n))
		} else {
			i64s = append(i64s, m.Heap.AllocI64(fmt.Sprintf("i%d", r), n))
		}
	}
	for op := 0; op < 50+rng.Intn(400); op++ {
		nf := len(f64s)
		pick := rng.Intn(nf + len(i64s))
		var reg mem.Region
		var n int
		if pick < nf {
			reg, n = f64s[pick], f64s[pick].Len()
		} else {
			reg, n = i64s[pick-nf], i64s[pick-nf].Len()
		}
		i := rng.Intn(n)
		switch p := rng.Intn(100); {
		case p < 70:
			// A store of the value already there leaves a dirty line whose
			// words equal the image: the "never emit" rule.
			v := int64(rng.Intn(3))
			if pick < nf {
				f64s[pick].Set(i, float64(v))
			} else {
				i64s[pick-nf].Set(i, v)
			}
		case p < 85:
			m.Persist(reg.Base()+mem.Addr(8*i), 8*(1+rng.Intn(n-i)))
		case p < 95:
			if pick < nf {
				_ = f64s[pick].At(i)
			} else {
				_ = i64s[pick-nf].At(i)
			}
		default:
			m.FlushRegion(reg)
		}
	}
	return m
}

// TestFaultOverlayMatchesOracle is the differential property test of the
// slice-built overlay: over seeded random machines and all five models
// (explicit permutations and their error path included) FaultOverlay
// equals the retained map-based implementation element for element, and
// repeated calls on one machine — which reuse its scratch buffers and
// its generator — keep doing so.
func TestFaultOverlayMatchesOracle(t *testing.T) {
	nonEmpty := map[FaultKind]int{}
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := randomFaultMachine(rng)
		nDirty := m.LLC.DirtyLines()
		models := []FaultModel{
			{},
			{Kind: TornLine, Seed: seed},
			{Kind: TornLine, Seed: seed, TearWords: 1 + rng.Intn(wordsPerLine-1)},
			{Kind: EADR},
			{Kind: ReorderWB, Seed: seed},
			{Kind: ReorderWB, Seed: seed, ReorderPerm: rng.Perm(nDirty + 1)[:1+rng.Intn(nDirty+1)]},
			{Kind: ReorderWB, ReorderPerm: []int{nDirty + rng.Intn(3)}},
			{Kind: BitFlip, Seed: seed},
			{Kind: BitFlip, Seed: seed, FlipBits: 1 + rng.Intn(40)},
		}
		for mi, f := range models {
			for point := int64(1); point <= 3; point++ {
				perm := append([]int(nil), f.ReorderPerm...)
				got, gotErr := m.FaultOverlay(f, point)
				want, wantErr := oracleFaultOverlay(m, f, point)
				if (gotErr == nil) != (wantErr == nil) ||
					(gotErr != nil && gotErr.Error() != wantErr.Error()) {
					t.Fatalf("seed %d model %d point %d: error %v, oracle %v", seed, mi, point, gotErr, wantErr)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d model %d (%v) point %d, %d dirty lines:\n got %v\nwant %v",
						seed, mi, f.Kind, point, nDirty, got, want)
				}
				if !reflect.DeepEqual(perm, f.ReorderPerm) {
					t.Fatalf("seed %d model %d: FaultOverlay reordered the caller's permutation", seed, mi)
				}
				if got != nil {
					nonEmpty[f.Kind]++
				}
			}
		}
	}
	for _, k := range []FaultKind{TornLine, EADR, ReorderWB, BitFlip} {
		if nonEmpty[k] < 50 {
			t.Errorf("%v: only %d non-empty overlays compared; the generator lost its dirty lines", k, nonEmpty[k])
		}
	}
}

// TestFaultOverlayAllocs guards the capture cost: on a warm machine a
// torn overlay allocates the returned slice and nothing the size of the
// dirty set, and with no dirty line there is nothing to allocate at all.
func TestFaultOverlayAllocs(t *testing.T) {
	m := faultMachine()
	dirtyPattern(m)
	torn := FaultModel{Kind: TornLine, Seed: 3}
	if _, err := m.FaultOverlay(torn, 1); err != nil { // warm the scratch
		t.Fatal(err)
	}
	point := int64(0)
	if n := testing.AllocsPerRun(200, func() {
		point++
		_, _ = m.FaultOverlay(torn, point)
	}); n > 2 {
		t.Errorf("torn overlay on a warm machine: %v allocations per run, want <= 2", n)
	}

	m.LLC.WritebackAll()
	for _, f := range []FaultModel{torn, {Kind: EADR}, {Kind: ReorderWB, Seed: 1}} {
		if n := testing.AllocsPerRun(200, func() {
			if ov, err := m.FaultOverlay(f, 9); ov != nil || err != nil {
				t.Fatalf("%v with no dirty line: overlay %v, error %v", f.Kind, ov, err)
			}
		}); n != 0 {
			t.Errorf("%v overlay with no dirty line: %v allocations per run, want 0", f.Kind, n)
		}
	}
}

// TestNthAddr: the selection agrees with a full sort at every index, on
// shuffled, ascending and descending inputs.
func TestNthAddr(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for n := 1; n <= 40; n++ {
		sorted := make([]mem.Addr, n)
		for i := range sorted {
			sorted[i] = mem.Addr(64 * (1 + i*(1+rng.Intn(5))))
		}
		slices.Sort(sorted)
		sorted = slices.Compact(sorted)
		for _, order := range []string{"shuffled", "ascending", "descending"} {
			for k := range sorted {
				in := slices.Clone(sorted)
				switch order {
				case "shuffled":
					rng.Shuffle(len(in), func(i, j int) { in[i], in[j] = in[j], in[i] })
				case "descending":
					slices.Reverse(in)
				}
				if got := nthAddr(in, k); got != sorted[k] {
					t.Fatalf("n=%d %s: nthAddr(k=%d) = %#x, want %#x", len(sorted), order, k, got, sorted[k])
				}
			}
		}
	}
}
