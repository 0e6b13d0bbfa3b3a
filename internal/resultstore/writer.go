package resultstore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"adcc/internal/campaign"
)

// Writer encodes injection rows into the columnar store format. It
// implements campaign.RowSink, so a campaign writes a store by setting
// Config.Sink to a Writer and calling Close after the run; rows arrive
// in deterministic grid order from either engine, making the file bytes
// a pure function of the campaign spec.
//
// The sink interface carries no error returns, so I/O and sequencing
// errors latch internally; Close reports the first one.
type Writer struct {
	w     *bufio.Writer
	scale float64
	seed  int64

	err       error
	off       int64 // bytes flushed to w so far
	dict      map[string]uint64
	strs      []string
	cells     []cellEntry
	open      bool      // a cell is accumulating rows
	cur       cellEntry // index entry of the open cell
	declared  int       // rows BeginCell promised for the open cell
	cols      [numCols][]byte
	prev      [numCols]int64 // delta bases for the integer columns
	totalRows int64
	closed    bool
}

// NewWriter starts a store stream on w. Scale and seed are the
// campaign's — they round-trip through the footer so a reader can
// rebuild the report envelope without the original Config.
func NewWriter(w io.Writer, scale float64, seed int64) *Writer {
	sw := &Writer{
		w:     bufio.NewWriterSize(w, 1<<16),
		scale: scale,
		seed:  seed,
		dict:  map[string]uint64{},
	}
	if _, err := sw.w.WriteString(headerMagic); err != nil {
		sw.err = err
	}
	sw.off = int64(len(headerMagic))
	return sw
}

// intern returns the dictionary id of s, assigning first-seen order.
func (sw *Writer) intern(s string) uint64 {
	if id, ok := sw.dict[s]; ok {
		return id
	}
	id := uint64(len(sw.strs))
	sw.dict[s] = id
	sw.strs = append(sw.strs, s)
	return id
}

// BeginCell closes the previous cell's column blocks and opens a new
// index entry. Part of campaign.RowSink.
func (sw *Writer) BeginCell(info campaign.CellInfo) {
	if sw.err != nil {
		return
	}
	if sw.closed {
		sw.err = fmt.Errorf("resultstore: BeginCell after Close")
		return
	}
	sw.flushCell()
	sw.open = true
	sw.declared = info.Injections
	sw.cur = cellEntry{
		workload:   sw.intern(info.Workload),
		scheme:     sw.intern(info.Scheme),
		system:     sw.intern(info.System),
		faultModel: sw.intern(info.FaultModel),
		profileOps: info.ProfileOps,
		grainOps:   info.GrainOps,
		offset:     sw.off,
	}
	for i := range sw.cols {
		sw.cols[i] = sw.cols[i][:0]
		sw.prev[i] = 0
	}
}

// Row appends one injection to the open cell's column buffers. Part of
// campaign.RowSink.
func (sw *Writer) Row(r campaign.InjectionRow) {
	if sw.err != nil {
		return
	}
	if !sw.open {
		sw.err = fmt.Errorf("resultstore: Row before BeginCell")
		return
	}
	name, err := r.Outcome.MarshalText()
	if err != nil {
		sw.err = err
		return
	}
	sw.cols[colOutcome] = binary.AppendUvarint(sw.cols[colOutcome], sw.intern(string(name)))
	sw.delta(colCrashOps, r.CrashOps)
	sw.delta(colReworkOps, r.ReworkOps)
	sw.delta(colFlushLines, r.FlushLines)
	sw.delta(colRecoverSimNS, r.RecoverSimNS)
	sw.delta(colResumeSimNS, r.ResumeSimNS)
	sw.cur.rowCount++
	sw.totalRows++
}

// delta appends v to integer column c as a zigzag varint of the
// difference from the column's previous value.
func (sw *Writer) delta(c int, v int64) {
	sw.cols[c] = binary.AppendUvarint(sw.cols[c], zigzag(v-sw.prev[c]))
	sw.prev[c] = v
}

// flushCell writes the open cell's column blocks and files its index
// entry.
func (sw *Writer) flushCell() {
	if !sw.open || sw.err != nil {
		return
	}
	sw.open = false
	if sw.cur.rowCount != sw.declared {
		sw.err = fmt.Errorf("resultstore: cell %q got %d rows, BeginCell declared %d",
			sw.strs[sw.cur.workload], sw.cur.rowCount, sw.declared)
		return
	}
	for i := range sw.cols {
		sw.cur.colLen[i] = int64(len(sw.cols[i]))
		if _, err := sw.w.Write(sw.cols[i]); err != nil {
			sw.err = err
			return
		}
		sw.off += int64(len(sw.cols[i]))
	}
	sw.cells = append(sw.cells, sw.cur)
}

// Close flushes the last cell, writes the footer and trailer, and
// reports the first error of the whole stream. It does not close the
// underlying writer.
func (sw *Writer) Close() error {
	if sw.closed {
		return sw.err
	}
	sw.closed = true
	sw.flushCell()
	if sw.err != nil {
		return sw.err
	}

	var ftr []byte
	ftr = binary.AppendUvarint(ftr, uint64(len(sw.strs)))
	for _, s := range sw.strs {
		ftr = binary.AppendUvarint(ftr, uint64(len(s)))
		ftr = append(ftr, s...)
	}
	ftr = binary.AppendUvarint(ftr, uint64(len(sw.cells)))
	for _, c := range sw.cells {
		if c.profileOps < 0 || c.grainOps < 0 {
			return fmt.Errorf("resultstore: negative cell constants (profile %d, grain %d)", c.profileOps, c.grainOps)
		}
		ftr = binary.AppendUvarint(ftr, c.workload)
		ftr = binary.AppendUvarint(ftr, c.scheme)
		ftr = binary.AppendUvarint(ftr, c.system)
		ftr = binary.AppendUvarint(ftr, c.faultModel)
		ftr = binary.AppendUvarint(ftr, uint64(c.profileOps))
		ftr = binary.AppendUvarint(ftr, uint64(c.grainOps))
		ftr = binary.AppendUvarint(ftr, uint64(c.rowCount))
		ftr = binary.AppendUvarint(ftr, uint64(c.offset))
		for _, n := range c.colLen {
			ftr = binary.AppendUvarint(ftr, uint64(n))
		}
	}
	ftr = binary.LittleEndian.AppendUint64(ftr, math.Float64bits(sw.scale))
	ftr = binary.AppendUvarint(ftr, zigzag(sw.seed))
	ftr = binary.AppendUvarint(ftr, uint64(sw.totalRows))

	if _, err := sw.w.Write(ftr); err != nil {
		return err
	}
	var trailer [trailerLen]byte
	binary.LittleEndian.PutUint64(trailer[:8], uint64(len(ftr)))
	copy(trailer[8:], endMagic)
	if _, err := sw.w.Write(trailer[:]); err != nil {
		return err
	}
	return sw.w.Flush()
}
