// Package pmem reimplements the baseline the paper compares against in
// every runtime figure: an Intel-PMEM-library-style (libpmemobj) undo-log
// transaction system for persistent memory.
//
// Semantics follow libpmemobj: before a range is modified inside a
// transaction it is snapshotted — its old contents are appended to an
// undo log in NVM and the log entry is flushed — so that a crash in the
// middle of the transaction can roll the data back to the pre-transaction
// state. At commit every modified range is flushed to NVM and the log is
// truncated. The log append and truncate paths flush on every step,
// which is exactly why the paper measures 329% overhead for CG and
// comparable losses for MM: frequently updated data objects pay a log
// write plus ordering flushes per cache line touched.
//
// The log itself lives in simulated NVM regions, so recovery after an
// injected crash operates purely on the persistent image, like the real
// library.
package pmem

import (
	"fmt"
	"math"

	"adcc/internal/crash"
	"adcc/internal/mem"
)

// regionKind discriminates logged region types.
type regionKind int64

const (
	kindF64 regionKind = 0
	kindI64 regionKind = 1
)

// Pool is a persistent object pool: a set of registered regions plus an
// undo log, all in simulated NVM.
type Pool struct {
	m *crash.Machine

	f64s []*mem.F64
	i64s []*mem.I64

	// snapF64/snapI64 hold one epoch stamp per cache line of each
	// registered region, keyed by line index — the flat-slice
	// replacement for the per-transaction map that used to dedup
	// snapshots. A line is snapshotted in the current transaction iff
	// its stamp equals epoch; Begin bumps epoch, invalidating every
	// stamp in O(1).
	snapF64 [][]uint64
	snapI64 [][]uint64
	epoch   uint64

	// Undo log: meta holds (kind, regionID, start, n) quadruples,
	// vals holds the old element values (int64 payloads bit-cast).
	// head[0] is the number of valid entries; it is flushed on every
	// append and on truncation, making it the log's validity marker.
	meta *mem.I64
	vals *mem.F64
	head *mem.I64

	metaLen int // meta slots used
	valsLen int // vals slots used
	entries int

	inTx bool
	// tx is the pool's reusable transaction object; Begin hands it out
	// after resetting it, so steady-state transactions allocate nothing.
	tx Tx
}

// lineStamps allocates one epoch stamp per cache line covering n
// elements (8 bytes each).
func lineStamps(n int) []uint64 {
	const perLine = mem.LineSize / 8
	return make([]uint64, (n+perLine-1)/perLine)
}

// metaSlots is the number of I64 slots per log entry header.
const metaSlots = 4

// drainNS is the ordering cost charged per log append on top of the
// flush traffic itself: the store fences and persist drains
// (pmem_drain) that the real library issues to order the log entry
// before the data update. Calibrated against the paper's measured
// 329% CG overhead for per-iteration transactions.
const drainNS = 600

// NewPool creates a pool whose undo log can hold up to logElems logged
// element values (and up to logElems entries).
func NewPool(m *crash.Machine, logElems int) *Pool {
	if logElems <= 0 {
		panic("pmem: log capacity must be positive")
	}
	p := &Pool{
		m:    m,
		meta: m.Heap.AllocI64("pmem.log.meta", metaSlots*logElems),
		vals: m.Heap.AllocF64("pmem.log.vals", logElems),
		head: m.Heap.AllocI64("pmem.log.head", 8), // one line
	}
	return p
}

// RegisterF64 adds a float64 region to the pool's transactional domain.
func (p *Pool) RegisterF64(r *mem.F64) {
	p.f64s = append(p.f64s, r)
	p.snapF64 = append(p.snapF64, lineStamps(r.Len()))
}

// RegisterI64 adds an int64 region to the pool's transactional domain.
func (p *Pool) RegisterI64(r *mem.I64) {
	p.i64s = append(p.i64s, r)
	p.snapI64 = append(p.snapI64, lineStamps(r.Len()))
}

func (p *Pool) f64ID(r *mem.F64) int64 {
	for i, x := range p.f64s {
		if x == r {
			return int64(i)
		}
	}
	panic(fmt.Sprintf("pmem: region %q not registered", r.Name()))
}

func (p *Pool) i64ID(r *mem.I64) int64 {
	for i, x := range p.i64s {
		if x == r {
			return int64(i)
		}
	}
	panic(fmt.Sprintf("pmem: region %q not registered", r.Name()))
}

// Tx is an open transaction. It is not safe for concurrent use, and is
// only valid between the Begin that returned it and the matching
// Commit (the pool reuses one Tx object across transactions).
type Tx struct {
	p *Pool
	// written records modified element ranges for the commit flush.
	written []writtenRange
}

type writtenRange struct {
	kind regionKind
	id   int64
	lo   int
	hi   int // exclusive
}

// Begin opens a transaction. Nested transactions are not supported.
func (p *Pool) Begin() *Tx {
	if p.inTx {
		panic("pmem: nested transaction")
	}
	p.inTx = true
	p.epoch++ // invalidates all snapshot-dedup stamps at once
	p.tx.p = p
	p.tx.written = p.tx.written[:0]
	return &p.tx
}

// InTx reports whether a transaction is open.
func (p *Pool) InTx() bool { return p.inTx }

// LogEntries returns the number of undo entries currently in the log.
func (p *Pool) LogEntries() int { return p.entries }

// beginEntry reserves one undo entry, writes its header, and returns
// the payload destination in the log's value area. The caller fills the
// payload and then calls finishEntry — split this way so the snapshot
// paths need no per-line closures.
func (p *Pool) beginEntry(kind regionKind, id int64, start, n int) []float64 {
	if p.valsLen+n > p.vals.Len() || p.metaLen+metaSlots > p.meta.Len() {
		panic("pmem: undo log overflow; increase pool log capacity")
	}
	hdr := p.meta.StoreRange(p.metaLen, metaSlots)
	hdr[0] = int64(kind)
	hdr[1] = id
	hdr[2] = int64(start)
	hdr[3] = int64(n)
	return p.vals.StoreRange(p.valsLen, n)
}

// finishEntry flushes the entry written by the matching beginEntry and
// bumps and flushes the head counter. This is the ordering-critical
// persistence path.
func (p *Pool) finishEntry(n int) {
	// Flush the entry before the head so a torn append is invisible.
	p.m.LLC.Flush(p.meta.Addr(p.metaLen), 8*metaSlots)
	p.m.LLC.Flush(p.vals.Addr(p.valsLen), 8*n)
	p.metaLen += metaSlots
	p.valsLen += n
	p.entries++
	p.head.Set(0, int64(p.entries))
	p.head.Set(1, int64(p.metaLen))
	p.head.Set(2, int64(p.valsLen))
	p.m.LLC.Flush(p.head.Addr(0), 24)
	p.m.Clock.Advance(drainNS)
}

// SnapshotF64 logs the old contents of elements [i, i+n) of r, as
// pmemobj_tx_add_range does. Redundant snapshots within one transaction
// are deduplicated at line granularity via the pool's epoch stamps.
func (tx *Tx) SnapshotF64(r *mem.F64, i, n int) {
	const perLine = mem.LineSize / 8
	p := tx.p
	id := p.f64ID(r)
	stamps := p.snapF64[id]
	limit := r.Len()
	first := i / perLine
	last := (i + n - 1) / perLine
	for line := first; line <= last; line++ {
		if stamps[line] == p.epoch {
			continue
		}
		stamps[line] = p.epoch
		lo := line * perLine
		ln := perLine
		if lo+ln > limit {
			ln = limit - lo
		}
		old := r.LoadRange(lo, ln)
		dst := p.beginEntry(kindF64, id, lo, ln)
		copy(dst, old)
		p.finishEntry(ln)
	}
}

// SnapshotI64 logs the old contents of elements [i, i+n) of r.
func (tx *Tx) SnapshotI64(r *mem.I64, i, n int) {
	const perLine = mem.LineSize / 8
	p := tx.p
	id := p.i64ID(r)
	stamps := p.snapI64[id]
	limit := r.Len()
	first := i / perLine
	last := (i + n - 1) / perLine
	for line := first; line <= last; line++ {
		if stamps[line] == p.epoch {
			continue
		}
		stamps[line] = p.epoch
		lo := line * perLine
		ln := perLine
		if lo+ln > limit {
			ln = limit - lo
		}
		old := r.LoadRange(lo, ln)
		dst := p.beginEntry(kindI64, id, lo, ln)
		for k, v := range old {
			dst[k] = math.Float64frombits(uint64(v))
		}
		p.finishEntry(ln)
	}
}

// SetF64 performs a transactional store: the containing line is
// snapshotted on first touch, then the store proceeds.
func (tx *Tx) SetF64(r *mem.F64, i int, v float64) {
	tx.SnapshotF64(r, i, 1)
	r.Set(i, v)
	tx.written = append(tx.written, writtenRange{kindF64, tx.p.f64ID(r), i, i + 1})
}

// SetI64 performs a transactional store on an int64 region.
func (tx *Tx) SetI64(r *mem.I64, i int, v int64) {
	tx.SnapshotI64(r, i, 1)
	r.Set(i, v)
	tx.written = append(tx.written, writtenRange{kindI64, tx.p.i64ID(r), i, i + 1})
}

// StoreRangeF64 is the bulk transactional store: snapshot + return the
// live destination slice for the caller to fill. The range is flushed at
// commit.
func (tx *Tx) StoreRangeF64(r *mem.F64, i, n int) []float64 {
	tx.SnapshotF64(r, i, n)
	tx.written = append(tx.written, writtenRange{kindF64, tx.p.f64ID(r), i, i + n})
	return r.StoreRange(i, n)
}

// MarkWrittenF64 registers a range modified outside the Tx API (e.g. by
// an instrumented kernel) so Commit flushes it. The caller must have
// snapshotted the range beforehand for rollback to be correct.
func (tx *Tx) MarkWrittenF64(r *mem.F64, i, n int) {
	tx.written = append(tx.written, writtenRange{kindF64, tx.p.f64ID(r), i, i + n})
}

// MarkWrittenI64 is the int64 variant of MarkWrittenF64.
func (tx *Tx) MarkWrittenI64(r *mem.I64, i, n int) {
	tx.written = append(tx.written, writtenRange{kindI64, tx.p.i64ID(r), i, i + n})
}

// Commit flushes every range modified in the transaction and truncates
// the log, making the transaction durable.
func (tx *Tx) Commit() {
	p := tx.p
	for _, w := range tx.written {
		switch w.kind {
		case kindF64:
			r := p.f64s[w.id]
			p.m.LLC.Flush(r.Addr(w.lo), 8*(w.hi-w.lo))
		case kindI64:
			r := p.i64s[w.id]
			p.m.LLC.Flush(r.Addr(w.lo), 8*(w.hi-w.lo))
		}
	}
	// Truncate the log: head to zero, flushed.
	p.entries = 0
	p.metaLen = 0
	p.valsLen = 0
	p.head.Set(0, 0)
	p.head.Set(1, 0)
	p.head.Set(2, 0)
	p.m.LLC.Flush(p.head.Addr(0), 24)
	p.inTx = false
}

// Boundary appends the pool's Go-side bookkeeping for
// engine.Boundary: the log cursors, the open-transaction flag and, inside
// a transaction, the lines already logged in it and the ranges its
// commit will flush. Outside a transaction the epoch stamps are left
// out: Begin moves the epoch past every stamp, so no stamp can matter
// to what follows, and the epoch itself counts transactions since the
// pool was built, not since the run began.
func (p *Pool) Boundary(dst []uint64) []uint64 {
	inTx := uint64(0)
	if p.inTx {
		inTx = 1
	}
	dst = append(dst, uint64(p.metaLen), uint64(p.valsLen), uint64(p.entries), inTx)
	if !p.inTx {
		return dst
	}
	for _, regions := range [][][]uint64{p.snapF64, p.snapI64} {
		for _, stamps := range regions {
			for line, st := range stamps {
				if st == p.epoch {
					dst = append(dst, uint64(line))
				}
			}
			dst = append(dst, math.MaxUint64) // region separator
		}
	}
	for _, w := range p.tx.written {
		dst = append(dst, uint64(w.kind), uint64(w.id), uint64(w.lo), uint64(w.hi))
	}
	return dst
}

// Recover must be called after a crash+restart (the machine's live state
// already equals the NVM image). If the log is non-empty — i.e. a
// transaction was open at the crash — the logged old values are applied
// in reverse order, restoring the pre-transaction state, and the log is
// truncated. It reports whether a rollback happened and how many entries
// were applied.
func (p *Pool) Recover() (rolledBack bool, applied int) {
	// Restart: volatile bookkeeping is rebuilt from the persistent
	// head, exactly like the real library's pool open path.
	p.inTx = false
	n := int(p.head.At(0))
	p.metaLen = int(p.head.At(1))
	p.valsLen = int(p.head.At(2))
	p.entries = n
	if n == 0 {
		return false, 0
	}
	// Walk entries forward to locate offsets, then apply in reverse.
	type entry struct {
		kind           regionKind
		id             int64
		start, n, vOff int
	}
	// n comes from an image a fault model may have corrupted: it must not
	// size an allocation. The log holds at most one entry per header, and
	// a count past that still panics below, at the end of meta.
	if n < 0 {
		panic(fmt.Sprintf("pmem: corrupt log head: %d entries", n))
	}
	entries := make([]entry, 0, min(n, p.meta.Len()/metaSlots))
	mOff, vOff := 0, 0
	for k := 0; k < n; k++ {
		hdr := p.meta.LoadRange(mOff, metaSlots)
		e := entry{
			kind:  regionKind(hdr[0]),
			id:    hdr[1],
			start: int(hdr[2]),
			n:     int(hdr[3]),
			vOff:  vOff,
		}
		entries = append(entries, e)
		mOff += metaSlots
		vOff += e.n
	}
	for k := n - 1; k >= 0; k-- {
		e := entries[k]
		old := p.vals.LoadRange(e.vOff, e.n)
		switch e.kind {
		case kindF64:
			r := p.f64s[e.id]
			dst := r.StoreRange(e.start, e.n)
			copy(dst, old)
			p.m.LLC.Flush(r.Addr(e.start), 8*e.n)
		case kindI64:
			r := p.i64s[e.id]
			dst := r.StoreRange(e.start, e.n)
			for j, v := range old {
				dst[j] = int64(math.Float64bits(v))
			}
			p.m.LLC.Flush(r.Addr(e.start), 8*e.n)
		default:
			panic(fmt.Sprintf("pmem: corrupt log entry kind %d", e.kind))
		}
	}
	// Truncate.
	p.entries = 0
	p.metaLen = 0
	p.valsLen = 0
	p.head.Set(0, 0)
	p.head.Set(1, 0)
	p.head.Set(2, 0)
	p.m.LLC.Flush(p.head.Addr(0), 24)
	return true, n
}
