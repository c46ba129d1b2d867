package survey

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"timeouts/internal/ipaddr"
)

// The dataset's binary format, in the spirit of ISI's published trace
// format: a fixed header followed by fixed-width records. All integers are
// big-endian.
//
//	header:  magic "TOSV" | version u16 | flags u16 | seed u64 |
//	         vantage byte | reserved [7]byte
//	record:  type u8 | addr u32 | when i64 (ns) | rtt i64 (ns, matched only)
//
// Times are already truncated to the precision their record type provides,
// so readers need no further care.

const (
	formatMagic   = "TOSV"
	formatVersion = 1
	recordSize    = 1 + 4 + 8 + 8
	headerSize    = 4 + 2 + 2 + 8 + 1 + 7
)

// Header identifies a dataset.
type Header struct {
	Seed    uint64
	Vantage byte // vantage point initial: 'w', 'c', 'j', 'g'
}

// ErrBadFormat reports a malformed dataset.
var ErrBadFormat = errors.New("survey: malformed dataset")

// Writer streams records to an io.Writer.
type Writer struct {
	bw      *bufio.Writer
	count   uint64
	started bool
	hdr     Header
	buf     [recordSize]byte
}

// NewWriter creates a dataset writer; the header is emitted on the first
// Write (or Flush).
func NewWriter(w io.Writer, hdr Header) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 1<<16), hdr: hdr}
}

func (w *Writer) writeHeader() error {
	var h [headerSize]byte
	copy(h[0:4], formatMagic)
	binary.BigEndian.PutUint16(h[4:], formatVersion)
	binary.BigEndian.PutUint64(h[8:], w.hdr.Seed)
	h[16] = w.hdr.Vantage
	w.started = true
	_, err := w.bw.Write(h[:])
	return err
}

// Write appends one record.
func (w *Writer) Write(r Record) error {
	if !w.started {
		if err := w.writeHeader(); err != nil {
			return err
		}
	}
	b := w.buf[:]
	b[0] = byte(r.Type)
	binary.BigEndian.PutUint32(b[1:], uint32(r.Addr))
	binary.BigEndian.PutUint64(b[5:], uint64(r.When))
	binary.BigEndian.PutUint64(b[13:], uint64(r.RTT))
	w.count++
	_, err := w.bw.Write(b)
	return err
}

// Count returns the number of records written.
func (w *Writer) Count() uint64 { return w.count }

// Flush flushes buffered data (emitting the header if nothing was written).
func (w *Writer) Flush() error {
	if !w.started {
		if err := w.writeHeader(); err != nil {
			return err
		}
	}
	return w.bw.Flush()
}

// Reader streams records from a dataset.
type Reader struct {
	br      *bufio.Reader
	hdr     Header
	lenient bool
	rs      ReadStats
	buf     [recordSize]byte
}

// NewReader opens a dataset, parsing its header.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var h [headerSize]byte
	if _, err := io.ReadFull(br, h[:]); err != nil {
		return nil, fmt.Errorf("survey: reading header: %w", err)
	}
	if string(h[0:4]) != formatMagic {
		return nil, ErrBadFormat
	}
	if v := binary.BigEndian.Uint16(h[4:]); v != formatVersion {
		return nil, fmt.Errorf("survey: unsupported dataset version %d", v)
	}
	return &Reader{
		br: br,
		hdr: Header{
			Seed:    binary.BigEndian.Uint64(h[8:]),
			Vantage: h[16],
		},
	}, nil
}

// Header returns the dataset header.
func (r *Reader) Header() Header { return r.hdr }

// SetLenient switches the reader into (or out of) lenient mode: records
// that fail validation are skipped — resynchronizing at the next
// fixed-width record stride — and counted in Stats instead of ending the
// read, and a partial record at end of stream is dropped rather than
// reported as an error.
func (r *Reader) SetLenient(on bool) { r.lenient = on }

// Stats returns the reader's ReadStats.
func (r *Reader) Stats() ReadStats { return r.rs }

// Read returns the next record, or io.EOF at end of dataset.
func (r *Reader) Read() (Record, error) {
	for {
		if _, err := io.ReadFull(r.br, r.buf[:]); err != nil {
			if err == io.EOF {
				return Record{}, io.EOF
			}
			if r.lenient && err == io.ErrUnexpectedEOF {
				r.rs.TruncatedTail++
				return Record{}, io.EOF
			}
			return Record{}, fmt.Errorf("survey: reading record: %w", err)
		}
		rec := Record{
			Type: RecordType(r.buf[0]),
			Addr: ipaddr.Addr(binary.BigEndian.Uint32(r.buf[1:])),
			When: time.Duration(binary.BigEndian.Uint64(r.buf[5:])),
			RTT:  time.Duration(binary.BigEndian.Uint64(r.buf[13:])),
		}
		if rec.Type < RecMatched || rec.Type > RecError {
			if r.lenient {
				r.rs.BadType++
				continue
			}
			return Record{}, fmt.Errorf("%w: record type %d", ErrBadFormat, r.buf[0])
		}
		// Negative times never leave the surveyor, so in lenient mode
		// they mark a flipped sign bit; strict mode keeps accepting
		// them for compatibility with raw round-tripping.
		if r.lenient && (rec.When < 0 || rec.RTT < 0) {
			r.rs.BadValue++
			continue
		}
		r.rs.Records++
		return rec, nil
	}
}
