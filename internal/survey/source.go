package survey

import (
	"bufio"
	"fmt"
	"io"
)

// RecordSource is the read side of the streaming analysis pipeline: anything
// that yields survey records one at a time, returning io.EOF at end of
// stream. All three dataset readers (fixed binary, compact, CSV) satisfy
// it. Consumers that process records through a RecordSource — rather than
// materializing a []Record — run in memory bounded by their own per-address
// state, not by the dataset size, which is what lets the analysis scale
// toward the paper's 9.64 billion-response surveys.
type RecordSource interface {
	Read() (Record, error)
}

// ReadStats counts what a lenient reader did: records returned, and records
// skipped by cause. The per-cause split lets an operator tell random bit rot
// (BadValue/BadType spread across the file) from structural damage (a Desync
// or a TruncatedTail).
type ReadStats struct {
	// Records is the number of records successfully returned.
	Records uint64
	// BadType counts records skipped for an out-of-range record type.
	BadType uint64
	// BadValue counts records skipped for an unparsable or out-of-range
	// field value.
	BadValue uint64
	// BadRow counts CSV rows skipped as structurally malformed.
	BadRow uint64
	// TruncatedTail counts partial records dropped at end of stream (at
	// most 1 for the binary formats).
	TruncatedTail uint64
	// Desyncs counts abandonments of the remainder of a stream whose
	// encoding cannot be resynchronized after corruption (the compact
	// format; at most 1).
	Desyncs uint64
}

// Skipped returns the total records lost to corruption.
func (s ReadStats) Skipped() uint64 {
	return s.BadType + s.BadValue + s.BadRow + s.TruncatedTail + s.Desyncs
}

// String formats the per-cause counts compactly.
func (s ReadStats) String() string {
	return fmt.Sprintf("records=%d skipped=%d (bad-type=%d bad-value=%d bad-row=%d truncated-tail=%d desyncs=%d)",
		s.Records, s.Skipped(), s.BadType, s.BadValue, s.BadRow, s.TruncatedTail, s.Desyncs)
}

// StatSource is a RecordSource that tracks ReadStats — the interface the
// lenient readers expose so consumers can enforce an error budget.
type StatSource interface {
	RecordSource
	Stats() ReadStats
}

// OpenSource sniffs the dataset format behind r — fixed binary ("TOSV"),
// varint-compact ("TOSC"), or CSV (header row starting "type") — and returns
// a streaming RecordSource positioned at the first record, plus the dataset
// header (CSV carries none; its header is zero except Vantage '?'). Unlike
// the ReadAll paths, nothing beyond the reader's buffer is materialized.
func OpenSource(r io.Reader) (RecordSource, Header, error) {
	src, hdr, err := openSource(r, false)
	if err != nil {
		return nil, Header{}, err
	}
	return src, hdr, nil
}

// OpenSourceLenient is OpenSource with the returned reader in lenient mode:
// corrupt records are skipped and counted per cause in the source's
// ReadStats instead of aborting the read. Each format degrades its own way —
// CSV resynchronizes at the next row, fixed binary at the next record
// stride, and the compact format (whose varint encoding cannot be resynced)
// bails out at the first corrupt record, keeping everything read so far. A
// corrupt dataset *header* still fails fast: without it the format itself is
// unknown.
func OpenSourceLenient(r io.Reader) (StatSource, Header, error) {
	return openSource(r, true)
}

func openSource(r io.Reader, lenient bool) (StatSource, Header, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic, err := br.Peek(4)
	if err != nil {
		return nil, Header{}, fmt.Errorf("survey: sniffing dataset format: %w", err)
	}
	switch string(magic) {
	case formatMagic:
		rd, err := NewReader(br)
		if err != nil {
			return nil, Header{}, err
		}
		rd.SetLenient(lenient)
		return rd, rd.Header(), nil
	case compactMagic:
		rd, err := NewCompactReader(br)
		if err != nil {
			return nil, Header{}, err
		}
		rd.SetLenient(lenient)
		return rd, rd.Header(), nil
	case "type":
		rd, err := NewCSVReader(br)
		if err != nil {
			return nil, Header{}, err
		}
		rd.SetLenient(lenient)
		return rd, Header{Vantage: '?'}, nil
	default:
		return nil, Header{}, ErrBadFormat
	}
}

// DrainSource reads a source to EOF, materializing the records — the bridge
// from the streaming readers to the in-memory analyses.
func DrainSource(src RecordSource) ([]Record, error) {
	var out []Record
	for {
		rec, err := src.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}

// Copy streams every record from src to dst, returning the record count —
// format conversion without materializing the dataset.
func Copy(dst RecordWriter, src RecordSource) (uint64, error) {
	var n uint64
	for {
		rec, err := src.Read()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		if err := dst.Write(rec); err != nil {
			return n, err
		}
		n++
	}
}
