// Package resultstore is the campaign's columnar on-disk result plane:
// a deterministic, seekable file format holding one row per injection
// (outcome class, crash/rework op counts, flush traffic, recover and
// resume simulated time) plus the query layer that filters, streams,
// and aggregates those rows — including the rebuild of the
// adcc-campaign/v1 cell aggregates, demoting the JSON envelope to an
// export derived from the store.
//
// # File layout
//
// A store file ("*.adccs") is written strictly front to back:
//
//	[8]  header magic "ADCCSTO1"
//	per cell, in campaign grid order:
//	  column blocks, back to back:
//	    outcome       — one uvarint dictionary id per row
//	    crash ops     — zigzag varint deltas
//	    rework ops    — zigzag varint deltas
//	    flush lines   — zigzag varint deltas
//	    recover sim ns— zigzag varint deltas
//	    resume sim ns — zigzag varint deltas
//	footer:
//	  string dictionary (uvarint count; uvarint length + bytes each)
//	  cell index (uvarint count; per cell the workload/scheme/system/
//	    fault-model dictionary ids, profile and grain op constants, row
//	    count, absolute block offset, and the six column byte lengths)
//	  campaign meta (scale as 8-byte LE float bits, zigzag varint seed,
//	    uvarint total row count)
//	[8]  uint64 LE footer length
//	[8]  end magic "ADCCEND1"
//
// The trailer makes the format seekable: a reader finds the footer from
// the file end, then reads only the column blocks a query touches.
//
// # Determinism
//
// The campaign feeds the writer through Config.Sink in plan-major point
// order on the strictly index-ordered observation path — so store bytes
// are identical at any -parallel width. Strings intern into
// the dictionary in first-reference order and every integer encoding is
// positional, so equal row sequences produce equal files.
package resultstore

import (
	"encoding/binary"
	"fmt"
)

// Magic numbers framing a store file.
const (
	headerMagic = "ADCCSTO1"
	endMagic    = "ADCCEND1"
)

// Column indices of one cell's blocks, in on-disk order.
const (
	colOutcome = iota
	colCrashOps
	colReworkOps
	colFlushLines
	colRecoverSimNS
	colResumeSimNS
	numCols
)

// trailerLen is the fixed byte count after the footer: the uint64 LE
// footer length plus the end magic.
const trailerLen = 8 + len(endMagic)

// minFileLen is the smallest well-formed store: header magic, an empty
// footer's meta (8-byte scale + ≥1-byte seed + ≥1-byte total + two
// ≥1-byte counts), and the trailer.
const minFileLen = len(headerMagic) + 12 + trailerLen

// zigzag maps signed to unsigned so small magnitudes of either sign
// varint-encode short.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// byteReader decodes footer and column bytes with hard bounds: every
// read checks the remaining length, so truncated or bit-flipped files
// error instead of panicking or over-reading.
type byteReader struct {
	b   []byte
	off int
}

func (r *byteReader) remaining() int { return len(r.b) - r.off }

// uvarint reads one bounded varint.
func (r *byteReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("resultstore: truncated or oversized varint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

// varint reads one bounded zigzag varint.
func (r *byteReader) varint() (int64, error) {
	u, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	return unzigzag(u), nil
}

// bytes reads exactly n bytes.
func (r *byteReader) bytes(n int) ([]byte, error) {
	if n < 0 || n > r.remaining() {
		return nil, fmt.Errorf("resultstore: need %d bytes at offset %d, have %d", n, r.off, r.remaining())
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b, nil
}

// cellEntry is one footer index record: a cell's coordinates (as
// dictionary ids), its per-cell constants, and where its column blocks
// live in the file.
type cellEntry struct {
	workload   uint64
	scheme     uint64
	system     uint64
	faultModel uint64
	profileOps int64
	grainOps   int64
	rowCount   int
	offset     int64
	colLen     [numCols]int64
}
