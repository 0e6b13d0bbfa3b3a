package cache

import (
	"testing"

	"adcc/internal/mem"
)

// Geometry and address space of FuzzCacheOps: a 16-line, 4-way cache
// under streams that pick from fuzzNear lines at the bottom of the
// address space, the same window at each of three far bases (a first
// fill there regrows the directory), and all of those again past
// dirMaxLines, where no line has a directory entry.
const (
	fuzzNear    = 72
	fuzzFarStep = 600
	fuzzFars    = 3
)

var fuzzCfg = Config{SizeBytes: 1 << 10, LineBytes: 64, Assoc: 4, HitNS: 1, FlushChargesClean: true, PrefetchStreams: 2}

// Operation kinds of a FuzzCacheOps input: four bytes per operation —
// kind, line, size, place. A LoadEach reads size bytes as a gather of
// 1 + size%8 indices within the four lines from its base (fzGather).
const (
	fzLoad = iota
	fzStore
	fzFlush
	fzFlushOpt
	fzWritebackAll
	fzDiscardAll
	fzLoadEach
	fzKinds
)

// Bits of the place byte: a wild line (on a discard: the full crash
// protocol, ResetVolatile included), which far base (0 = near), and the
// access's offset within its first line in units of four bytes.
const (
	fzWild     = 1 << 0
	fzFarShift = 1
	fzOffShift = 4
)

// fzGather derives a LoadEach index vector from the size byte: the
// indices stay inside the lines a 256-byte access would cover, so the
// compared line windows hold every line a gather touches.
func fzGather(size byte) []int64 {
	idx := make([]int64, 1+size%8)
	x := uint32(size)
	for k := range idx {
		x = x*1103515245 + 12345
		idx[k] = int64(x>>16) % 32
	}
	return idx
}

// fzOp encodes one operation on size bytes starting at the given line.
func fzOp(kind, line, size, place byte) []byte { return []byte{kind, line, size - 1, place} }

func fzSeq(ops ...[]byte) []byte {
	var b []byte
	for _, op := range ops {
		b = append(b, op...)
	}
	return b
}

// FuzzCacheOps decodes its input into a sequence of loads, gathers,
// stores, CLFLUSHes, CLWBs, drains and crashes over small, multi-line, far and
// wild addresses, drives Cache and refCache in lockstep, and after every
// operation requires equal counters, equal resident and dirty sets (read
// through Contains, which scans) and a directory equal to the ways.
func FuzzCacheOps(f *testing.F) {
	far := byte(1 << fzFarShift)
	// Evict, then hit again: five lines of one set in a 4-way cache, then
	// the evicted one and a survivor.
	f.Add(fzSeq(fzOp(fzStore, 0, 8, 0), fzOp(fzLoad, 4, 8, 0), fzOp(fzLoad, 8, 8, 0), fzOp(fzLoad, 12, 8, 0),
		fzOp(fzLoad, 16, 8, 0), fzOp(fzLoad, 0, 8, 0), fzOp(fzStore, 8, 8, 0)))
	// Flush, then refill the same line, landing in another way.
	f.Add(fzSeq(fzOp(fzStore, 1, 8, 0), fzOp(fzStore, 5, 8, 0), fzOp(fzFlush, 1, 8, 0), fzOp(fzLoad, 9, 8, 0),
		fzOp(fzStore, 1, 8, 0), fzOp(fzLoad, 1, 200, 0), fzOp(fzFlush, 1, 8, 0), fzOp(fzLoad, 1, 8, 0)))
	// A store hit on a line CLWB cleaned, then on one a drain cleaned.
	f.Add(fzSeq(fzOp(fzStore, 2, 8, 0), fzOp(fzFlushOpt, 2, 8, 0), fzOp(fzStore, 2, 8, 0), fzOp(fzWritebackAll, 0, 1, 0),
		fzOp(fzStore, 2, 8, 0), fzOp(fzFlushOpt, 2, 130, 0), fzOp(fzLoad, 2, 8, 0)))
	// Discard after a regrow: the first fill leaves a 64-entry directory,
	// lines 62..65 of one store straddle its end; then a far range, the
	// crash, and the same lines again.
	f.Add(fzSeq(fzOp(fzStore, 0, 8, 0), fzOp(fzStore, 62, 250, 0), fzOp(fzLoad, 71, 250, 2*far), fzOp(fzDiscardAll, 0, 1, fzWild),
		fzOp(fzLoad, 62, 250, 0), fzOp(fzStore, 71, 250, 2*far), fzOp(fzLoad, 0, 8, 0)))
	// Gathers: over resident and dirty lines, a far one that regrows the
	// directory, a wild one, then a miss stream that evicts.
	f.Add(fzSeq(fzOp(fzStore, 3, 8, 0), fzOp(fzLoadEach, 3, 8, 0), fzOp(fzLoadEach, 70, 200, far), fzOp(fzLoadEach, 5, 77, fzWild),
		fzOp(fzLoadEach, 0, 255, 3<<fzOffShift), fzOp(fzLoadEach, 4, 8, 0), fzOp(fzLoadEach, 8, 8, 0), fzOp(fzLoadEach, 12, 8, 0)))
	// Wild lines beside directory lines of the same sets.
	f.Add(fzSeq(fzOp(fzStore, 0, 8, fzWild), fzOp(fzStore, 0, 8, 0), fzOp(fzFlushOpt, 0, 8, fzWild), fzOp(fzStore, 0, 8, fzWild),
		fzOp(fzLoad, 4, 250, fzWild), fzOp(fzFlush, 0, 8, fzWild), fzOp(fzLoad, 0, 8, 15<<fzOffShift), fzOp(fzDiscardAll, 0, 1, 0)))

	f.Fuzz(func(t *testing.T, in []byte) {
		l := newLockstep(fuzzCfg)
		line := uint64(fuzzCfg.LineBytes)
		var ranges [][2]uint64
		for _, wild := range []uint64{0, dirMaxLines} {
			for far := uint64(0); far <= fuzzFars; far++ {
				lo := wild + far*fuzzFarStep
				ranges = append(ranges, [2]uint64{lo, lo + fuzzNear + 4})
			}
		}
		for i := 0; i+4 <= len(in) && i < 4*512; i += 4 {
			kind, place := in[i]%fzKinds, in[i+3]
			ln := uint64(in[i+1]) % fuzzNear
			ln += uint64(place>>fzFarShift) % (fuzzFars + 1) * fuzzFarStep
			if place&fzWild != 0 {
				ln += dirMaxLines
			}
			a := mem.Addr(ln*line + uint64(place>>fzOffShift)*4)
			size := int(in[i+2]) + 1 // up to 256 bytes: five lines
			switch kind {
			case fzLoad:
				l.load(a, size)
			case fzLoadEach:
				l.loadEach(a, fzGather(in[i+2]))
			case fzStore:
				l.store(a, size)
			case fzFlush:
				l.flush(a, size)
			case fzFlushOpt:
				l.flushOpt(a, size)
			case fzWritebackAll:
				l.writebackAll()
			case fzDiscardAll:
				l.discardAll()
				if place&fzWild != 0 {
					l.c.ResetVolatile()
				}
			}
			if err := l.compare(ranges...); err != nil {
				t.Fatalf("op %d (kind %d, %d bytes at %#x): %v", i/4, kind, size, a, err)
			}
			if err := auditDirectory(l.c); err != nil {
				t.Fatalf("op %d (kind %d, %d bytes at %#x): %v", i/4, kind, size, a, err)
			}
		}
	})
}
