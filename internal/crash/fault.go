// Fault and persistency models layered over the machine crash protocol.
//
// The baseline Machine.Crash models exactly one failure: every dirty LLC
// line vanishes and the NVM image alone survives (clean fail-stop). Real
// NVM failure semantics are weaker — 8-byte persist atomicity lets an
// in-flight flush tear mid-line, relaxed persist ordering drains dirty
// lines out of program order between fences, eADR platforms drain the
// whole cache on power failure, and media errors flip bits silently. A
// FaultModel selects one of those semantics; its effect is expressed as
// a deterministic word-level *overlay* ([]FaultWrite) computed from the
// pre-crash machine state (the sorted dirty-line set, the live values
// they hold, the persistent image) and a seed, then applied on top of
// the fail-stop image after the crash protocol runs.
//
// The overlay form is what keeps every model byte-deterministic at any
// parallelism and compatible with the snapshot/fork campaign engine: the
// overlay is a pure function of (machine instant, model, point seed), it
// is captured inside CrashState (hash-mixed and compared by the
// equivalence-class dedup), and applying it commutes with restoring the
// copy-on-write image snapshot.
package crash

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"adcc/internal/mem"
)

// FaultKind enumerates the crash-time fault/persistency models.
type FaultKind int

const (
	// FailStop is the baseline model: all dirty LLC lines are lost, the
	// NVM image alone survives. The zero value, so a zero FaultModel is
	// exactly the legacy crash protocol.
	FailStop FaultKind = iota
	// TornLine models 8-byte persist atomicity: one seeded dirty line
	// was mid-flush at the crash and only a prefix of its words reached
	// the persistence domain.
	TornLine
	// EADR models a flush-on-fail platform: the LLC is inside the
	// persistence domain, so the crash drains every dirty line instead
	// of discarding it (pair with cache.Config.FlushFree for the cost
	// side of the platform).
	EADR
	// ReorderWB models relaxed persist ordering: between drain fences,
	// dirty lines persist in a seeded order rather than program order,
	// and the crash interrupts that drain after a seeded prefix.
	ReorderWB
	// BitFlip models silent media corruption: a seeded set of single-bit
	// flips lands in the persistent image, so *detection* (not just
	// recovery) is exercised.
	BitFlip
)

// String returns the canonical fault-model name used by flags, specs,
// and reports.
func (k FaultKind) String() string {
	switch k {
	case FailStop:
		return "failstop"
	case TornLine:
		return "torn"
	case EADR:
		return "eadr"
	case ReorderWB:
		return "reorder"
	case BitFlip:
		return "bitflip"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// FaultModelNames returns the canonical names of all fault models in
// sweep order.
func FaultModelNames() []string {
	return []string{"failstop", "torn", "eadr", "reorder", "bitflip"}
}

// ParseFaultModel resolves a canonical fault-model name ("failstop",
// "torn", "eadr", "reorder", "bitflip") to its model. The empty string
// parses as fail-stop.
func ParseFaultModel(name string) (FaultModel, error) {
	switch name {
	case "", "failstop":
		return FaultModel{Kind: FailStop}, nil
	case "torn":
		return FaultModel{Kind: TornLine}, nil
	case "eadr":
		return FaultModel{Kind: EADR}, nil
	case "reorder":
		return FaultModel{Kind: ReorderWB}, nil
	case "bitflip":
		return FaultModel{Kind: BitFlip}, nil
	default:
		return FaultModel{}, fmt.Errorf("crash: unknown fault model %q (valid: %v)",
			name, FaultModelNames())
	}
}

// wordsPerLine is the number of 8-byte persist units in a cache line.
const wordsPerLine = mem.LineSize / 8

// maxFlipBits bounds the bit-flip count so a hostile or fuzzed model
// cannot turn overlay computation into unbounded work.
const maxFlipBits = 4096

// FaultModel describes one crash-time fault/persistency model. The zero
// value is clean fail-stop. Models are pure configuration: the same
// model, machine instant, and point seed always produce the same
// overlay.
type FaultModel struct {
	// Kind selects the model.
	Kind FaultKind
	// Seed decorrelates the fault lottery (which line tears, the drain
	// order, the flipped bits) from everything else; it is mixed with
	// the per-injection point seed, so distinct crash points of one
	// model draw independently.
	Seed int64
	// TearWords (TornLine only) fixes how many leading 8-byte words of
	// the torn line persist. 0 draws 1..wordsPerLine-1 from the seed; a
	// value at or past wordsPerLine would be a complete (untorn)
	// persist and is rejected by Validate.
	TearWords int
	// FlipBits (BitFlip only) is the number of seeded single-bit flips;
	// 0 means 1. Bounded by maxFlipBits.
	FlipBits int
	// ReorderPerm (ReorderWB only) optionally fixes the drain order as
	// indices into the crash-time sorted dirty-line list; nil draws a
	// seeded permutation. Indices must name undrained (dirty) lines: an
	// index at or past the dirty-line count is rejected at crash time.
	ReorderPerm []int
}

// Validate rejects statically malformed models with errors, never
// panics: tear offsets past the line size, negative or unbounded flip
// counts, and malformed reorder permutations (negative or duplicate
// indices). Permutation indices past the crash-time dirty-line count
// can only be checked at crash time; FaultOverlay rejects those.
func (f FaultModel) Validate() error {
	if f.Kind < FailStop || f.Kind > BitFlip {
		return fmt.Errorf("crash: unknown fault kind %d", int(f.Kind))
	}
	if f.TearWords < 0 || f.TearWords >= wordsPerLine {
		return fmt.Errorf("crash: tear offset %d words past line size (%d words per line)",
			f.TearWords, wordsPerLine)
	}
	if f.FlipBits < 0 || f.FlipBits > maxFlipBits {
		return fmt.Errorf("crash: flip count %d out of range [0, %d]", f.FlipBits, maxFlipBits)
	}
	if len(f.ReorderPerm) > 0 {
		seen := make(map[int]bool, len(f.ReorderPerm))
		for _, idx := range f.ReorderPerm {
			if idx < 0 {
				return fmt.Errorf("crash: negative reorder permutation index %d", idx)
			}
			if seen[idx] {
				return fmt.Errorf("crash: duplicate reorder permutation index %d", idx)
			}
			seen[idx] = true
		}
	}
	return nil
}

// FaultWrite is one word of a fault overlay: after the fail-stop crash
// protocol, the 8-byte-aligned persistent word at Addr holds the raw
// bits Word.
type FaultWrite struct {
	Addr mem.Addr
	Word uint64
}

// FNV-1a parameters of the fault lottery's seed derivation.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvMix64(h, v uint64) uint64 {
	for s := 0; s < 64; s += 8 {
		h ^= (v >> s) & 0xff
		h *= fnvPrime64
	}
	return h
}

// faultSeed derives the seed of the deterministic per-injection random
// stream from the model seed and the point seed (in practice the crash
// op count). The stream decides which line tears and what drains, so
// this derivation is frozen: changing it moves every fault golden.
func faultSeed(seed, pointSeed int64) int64 {
	h := fnvMix64(fnvMix64(fnvOffset64, uint64(seed)), uint64(pointSeed))
	return int64(h >> 1)
}

// faultScratch is the per-machine working storage of FaultOverlay, kept
// so that an overlay computed at every crash point of a campaign cell
// allocates nothing but the overlay it returns.
type faultScratch struct {
	rng   *rand.Rand   // reseeded per overlay
	dirty []mem.Addr   // dirty-line addresses
	order []int        // reorder model: the drained line indices
	words []FaultWrite // the overlay under construction
}

// faultRNG reseeds the machine's generator for one injection. Seeding a
// reused generator yields the same stream as a freshly built
// rand.New(rand.NewSource(seed)).
func (m *Machine) faultRNG(seed, pointSeed int64) *rand.Rand {
	s := faultSeed(seed, pointSeed)
	if m.fault.rng == nil {
		m.fault.rng = rand.New(rand.NewSource(s))
	} else {
		m.fault.rng.Seed(s)
	}
	return m.fault.rng
}

// FaultOverlay computes the word-level image mutation model f implies at
// the machine's current (pre-crash) instant. A nil overlay with a nil
// error means the model degenerates to clean fail-stop here (always for
// FailStop; for the dirty-line models when no line is dirty). The
// overlay is sorted by address, names each word once, and never contains
// a write whose value already equals the image word — models that happen
// to change nothing are byte-identical to fail-stop, which maximizes
// snapshot-class sharing in the campaign.
//
// The computation reads the dirty-line directory and region contents
// without simulated accesses or version bumps, so calling it does not
// perturb the machine. Errors (a statically invalid model, a reorder
// permutation naming more lines than are undrained) leave the machine
// untouched and report the model as inapplicable; callers fall back to
// fail-stop.
func (m *Machine) FaultOverlay(f FaultModel, pointSeed int64) ([]FaultWrite, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	if f.Kind == FailStop {
		return nil, nil
	}
	if f.Kind == BitFlip {
		return m.bitFlipOverlay(f, pointSeed), nil
	}
	// The dirty-line models persist whole lines or a prefix of one, and
	// a line is named at most once, so walking the chosen lines in
	// ascending address order emits the overlay already sorted and free
	// of duplicates. The lottery indexes the address-sorted dirty lines,
	// which makes it independent of set/way layout.
	sc := &m.fault
	sc.dirty = m.LLC.AppendDirtyLineAddrs(sc.dirty[:0])
	dirty := sc.dirty
	if len(dirty) == 0 {
		return nil, nil
	}
	sc.words = sc.words[:0]
	switch f.Kind {
	case TornLine:
		// One line of the sorted order is needed, not the order.
		rng := m.faultRNG(f.Seed, pointSeed)
		line := nthAddr(dirty, rng.Intn(len(dirty)))
		k := f.TearWords
		if k == 0 {
			k = 1 + rng.Intn(wordsPerLine-1)
		}
		m.persistLivePrefix(line, k)
	case EADR:
		slices.Sort(dirty)
		for _, line := range dirty {
			m.persistLivePrefix(line, wordsPerLine)
		}
	case ReorderWB:
		slices.Sort(dirty)
		rng := m.faultRNG(f.Seed, pointSeed)
		sc.order = sc.order[:0]
		if len(f.ReorderPerm) == 0 {
			// rng.Perm(len(dirty)), drawn into the scratch buffer.
			sc.order = slices.Grow(sc.order, len(dirty))[:len(dirty)]
			for i := range sc.order {
				j := rng.Intn(i + 1)
				sc.order[i] = sc.order[j]
				sc.order[j] = i
			}
		} else {
			for _, idx := range f.ReorderPerm {
				if idx >= len(dirty) {
					return nil, fmt.Errorf(
						"crash: reorder permutation index %d over %d undrained lines",
						idx, len(dirty))
				}
			}
			sc.order = append(sc.order, f.ReorderPerm...)
		}
		// The crash interrupts the out-of-order drain after a seeded
		// prefix of the permuted order; those lines persist in full.
		drained := sc.order[:rng.Intn(len(sc.order)+1)]
		slices.Sort(drained)
		for _, idx := range drained {
			m.persistLivePrefix(dirty[idx], wordsPerLine)
		}
	}
	if len(sc.words) == 0 {
		return nil, nil
	}
	return slices.Clone(sc.words), nil
}

// nthAddr returns the element a full ascending sort of s would leave at
// index k, reordering s only as far as finding it takes (quickselect;
// the elements are distinct line addresses).
func nthAddr(s []mem.Addr, k int) mem.Addr {
	lo, hi := 0, len(s)-1
	for lo < hi {
		pivot := s[lo+(hi-lo)/2]
		i, j := lo, hi
		for i <= j {
			for s[i] < pivot {
				i++
			}
			for s[j] > pivot {
				j--
			}
			if i <= j {
				s[i], s[j] = s[j], s[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return s[k]
		}
	}
	return s[k]
}

// persistLivePrefix appends to the overlay under construction the first
// k words of a dirty line whose live value differs from the image. Words
// past the owning region's end (line padding) never existed in the
// persistence domain and are skipped.
func (m *Machine) persistLivePrefix(line mem.Addr, k int) {
	var live, image [wordsPerLine]uint64
	k = min(k, m.Heap.LineWords(line, &live, &image))
	for i := 0; i < k; i++ {
		if live[i] != image[i] {
			m.fault.words = append(m.fault.words, FaultWrite{Addr: line + mem.Addr(8*i), Word: live[i]})
		}
	}
}

// bitFlipOverlay draws the seeded single-bit flips of the BitFlip model.
// Flips land anywhere in the heap and may hit one word twice, so this
// model alone collects words in a map and sorts them.
func (m *Machine) bitFlipOverlay(f FaultModel, pointSeed int64) []FaultWrite {
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
		return nil
	}
	words := make(map[mem.Addr]uint64)
	rng := m.faultRNG(f.Seed, pointSeed)
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
	out := make([]FaultWrite, 0, len(words))
	for a, w := range words {
		if img, ok := m.Heap.ImageWord(a); ok && img == w {
			continue
		}
		out = append(out, FaultWrite{Addr: a, Word: w})
	}
	if len(out) == 0 {
		return nil
	}
	slices.SortFunc(out, func(a, b FaultWrite) int { return cmp.Compare(a.Addr, b.Addr) })
	return out
}

// applyOverlay rewrites the persistent words of a post-crash machine
// (live == image, so both move together).
func (m *Machine) applyOverlay(ov []FaultWrite) {
	for _, w := range ov {
		m.Heap.StorePersistWord(w.Addr, w.Word)
	}
}

// CrashWithFault executes the crash protocol under fault model f: the
// overlay is computed from the pre-crash state, the machine crashes
// exactly as Crash does, and the overlay is applied to the persistent
// words. A zero (fail-stop) model is byte-identical to Crash. On error
// (an inapplicable model) the machine has still crashed — fail-stop —
// and the error reports why the fault could not be applied.
func (m *Machine) CrashWithFault(f FaultModel, pointSeed int64) error {
	ov, err := m.FaultOverlay(f, pointSeed)
	m.Crash()
	m.applyOverlay(ov)
	return err
}

// CrashSnapshotFault captures the machine's post-crash state under
// fault model f, as CrashSnapshot does for fail-stop: the overlay is
// computed at the same pre-crash instant CrashWithFault would use and
// attached to the snapshot, where it participates in the content hash
// and in Equal, so equivalence-class deduplication keys on the torn or
// reordered image bytes, not just the fail-stop image. On error the
// returned snapshot is the fail-stop capture (nil overlay).
func (m *Machine) CrashSnapshotFault(prev *CrashState, f FaultModel, pointSeed int64) (*CrashState, error) {
	ov, err := m.FaultOverlay(f, pointSeed)
	st := m.CrashSnapshot(prev)
	st.Overlay = ov
	for _, w := range ov {
		st.hash = mem.HashWord(mem.HashWord(st.hash, uint64(w.Addr)), w.Word)
	}
	return st, err
}

// SetFault installs the fault model applied at this emulator's injected
// crashes, after validating it. A zero model restores the legacy clean
// fail-stop behavior.
func (e *Emulator) SetFault(f FaultModel) error {
	if err := f.Validate(); err != nil {
		return err
	}
	e.fault = f
	return nil
}

// Fault returns the installed fault model.
func (e *Emulator) Fault() FaultModel { return e.fault }

// FaultErr returns the error, if any, from applying the fault model at
// the most recent Run's crash. A non-nil value means the crash fell
// back to clean fail-stop (the model was inapplicable at that instant,
// e.g. an explicit reorder permutation naming more lines than were
// dirty).
func (e *Emulator) FaultErr() error { return e.faultErr }
