package survey

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"

	"timeouts/internal/ipaddr"
)

// CSV interchange for datasets: one record per row, mirroring how the ISI
// traces are commonly post-processed with text tooling. Columns:
//
//	type,addr,when_ns,rtt_ns
//
// where type is one of matched/timeout/unmatched/error, addr is dotted
// quad, and when_ns is the record time in nanoseconds. The rtt_ns column
// reuses the Record.RTT convention of the binary formats: for matched
// records it carries the RTT in nanoseconds; for unmatched records it
// carries the *batch count* as a raw integer (NOT nanoseconds — the same
// count-in-RTT convention the compact format stores as a raw uvarint), and
// it is 0 for timeout/error rows. The cross-format round-trip test pins all
// three formats to this convention.

// CSVWriter streams records as CSV rows, emitting the header row before the
// first record. It implements RecordWriter, so surveys can write CSV
// datasets without materializing the record stream.
type CSVWriter struct {
	cw      *csv.Writer
	row     [4]string
	count   uint64
	started bool
}

// NewCSVWriter creates a streaming CSV dataset writer.
func NewCSVWriter(w io.Writer) *CSVWriter {
	return &CSVWriter{cw: csv.NewWriter(w)}
}

func (w *CSVWriter) writeHeader() error {
	w.started = true
	if err := w.cw.Write([]string{"type", "addr", "when_ns", "rtt_ns"}); err != nil {
		return fmt.Errorf("survey: writing csv header: %w", err)
	}
	return nil
}

// Write implements RecordWriter.
func (w *CSVWriter) Write(r Record) error {
	if !w.started {
		if err := w.writeHeader(); err != nil {
			return err
		}
	}
	w.row[0] = r.Type.String()
	w.row[1] = r.Addr.String()
	w.row[2] = strconv.FormatInt(int64(r.When), 10)
	w.row[3] = strconv.FormatInt(int64(r.RTT), 10)
	w.count++
	if err := w.cw.Write(w.row[:]); err != nil {
		return fmt.Errorf("survey: writing csv row: %w", err)
	}
	return nil
}

// Count returns the number of records written.
func (w *CSVWriter) Count() uint64 { return w.count }

// Flush flushes buffered rows (emitting the header if nothing was written).
func (w *CSVWriter) Flush() error {
	if !w.started {
		if err := w.writeHeader(); err != nil {
			return err
		}
	}
	w.cw.Flush()
	return w.cw.Error()
}

// typeByName inverts RecordType.String.
var typeByName = map[string]RecordType{
	"matched":   RecMatched,
	"timeout":   RecTimeout,
	"unmatched": RecUnmatched,
	"error":     RecError,
}

// csvColumns is the required header row, in order.
var csvColumns = [4]string{"type", "addr", "when_ns", "rtt_ns"}

// CSVReader streams records from a CSV dataset written by CSVWriter. It
// implements RecordSource.
type CSVReader struct {
	cr      *csv.Reader
	line    int
	lenient bool
	rs      ReadStats
}

// NewCSVReader opens a CSV dataset, consuming and validating its header row:
// all four column names must match, in order.
func NewCSVReader(r io.Reader) (*CSVReader, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 4
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("survey: reading csv header: %w", err)
	}
	for i, want := range csvColumns {
		if i >= len(header) {
			return nil, fmt.Errorf("survey: csv header missing column %d (%q)", i+1, want)
		}
		if header[i] != want {
			return nil, fmt.Errorf("survey: csv header column %d is %q, want %q", i+1, header[i], want)
		}
	}
	return &CSVReader{cr: cr, line: 1}, nil
}

// SetLenient switches the reader into (or out of) lenient mode: malformed
// rows are skipped — the CSV reader naturally resynchronizes at the next
// row — and counted per cause in Stats instead of ending the read.
func (r *CSVReader) SetLenient(on bool) { r.lenient = on }

// Stats returns the reader's ReadStats.
func (r *CSVReader) Stats() ReadStats { return r.rs }

// Read returns the next record, or io.EOF at end of dataset.
func (r *CSVReader) Read() (Record, error) {
	for {
		row, err := r.cr.Read()
		if err == io.EOF {
			return Record{}, io.EOF
		}
		r.line++
		if err != nil {
			if r.lenient {
				r.rs.BadRow++
				continue
			}
			return Record{}, fmt.Errorf("survey: reading csv: %w", err)
		}
		typ, ok := typeByName[row[0]]
		if !ok {
			if r.lenient {
				r.rs.BadType++
				continue
			}
			return Record{}, fmt.Errorf("survey: csv line %d: unknown record type %q", r.line, row[0])
		}
		addr, err := ipaddr.Parse(row[1])
		if err != nil {
			if r.lenient {
				r.rs.BadValue++
				continue
			}
			return Record{}, fmt.Errorf("survey: csv line %d: %w", r.line, err)
		}
		when, err := strconv.ParseInt(row[2], 10, 64)
		if err != nil {
			if r.lenient {
				r.rs.BadValue++
				continue
			}
			return Record{}, fmt.Errorf("survey: csv line %d: bad when: %w", r.line, err)
		}
		rtt, err := strconv.ParseInt(row[3], 10, 64)
		if err != nil {
			if r.lenient {
				r.rs.BadValue++
				continue
			}
			return Record{}, fmt.Errorf("survey: csv line %d: bad rtt: %w", r.line, err)
		}
		r.rs.Records++
		return Record{
			Type: typ, Addr: addr,
			When: time.Duration(when), RTT: time.Duration(rtt),
		}, nil
	}
}
