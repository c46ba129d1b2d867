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

// Compact dataset format: the same records as the fixed-width format, but
// delta- and varint-encoded, in the spirit of ISI's space-conscious trace
// format (their surveys hold billions of records). Encoding per record:
//
//	type      uvarint (1 byte)
//	addrDelta varint  (zigzag of addr - prevAddr)
//	whenDelta varint  (zigzag of when - prevWhen, in the record's natural
//	                   precision: microseconds for matched, seconds otherwise)
//	extra     uvarint (matched: RTT in microseconds; unmatched: batch count;
//	                   absent for timeout/error records)
//
// Survey records are written roughly in time order with runs of nearby
// addresses, so the deltas stay small and records average a few bytes.

const compactMagic = "TOSC"

// CompactWriter writes the compact format.
type CompactWriter struct {
	bw       *bufio.Writer
	hdr      Header
	started  bool
	count    uint64
	prevAddr int64
	prevUS   int64 // previous when, microseconds
	buf      [4 * binary.MaxVarintLen64]byte
}

// NewCompactWriter creates a compact dataset writer.
func NewCompactWriter(w io.Writer, hdr Header) *CompactWriter {
	return &CompactWriter{bw: bufio.NewWriterSize(w, 1<<16), hdr: hdr}
}

func (w *CompactWriter) writeHeader() error {
	var h [headerSize]byte
	copy(h[0:4], compactMagic)
	binary.BigEndian.PutUint16(h[4:], formatVersion)
	binary.BigEndian.PutUint64(h[8:], w.hdr.Seed)
	h[16] = w.hdr.Vantage
	w.started = true
	_, err := w.bw.Write(h[:])
	return err
}

func zigzag(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Write appends one record.
func (w *CompactWriter) Write(r Record) error {
	if !w.started {
		if err := w.writeHeader(); err != nil {
			return err
		}
	}
	n := 0
	w.buf[n] = byte(r.Type)
	n++
	addr := int64(r.Addr)
	n += binary.PutUvarint(w.buf[n:], zigzag(addr-w.prevAddr))
	w.prevAddr = addr
	us := int64(r.When / time.Microsecond)
	n += binary.PutUvarint(w.buf[n:], zigzag(us-w.prevUS))
	w.prevUS = us
	switch r.Type {
	case RecMatched:
		n += binary.PutUvarint(w.buf[n:], uint64(r.RTT/time.Microsecond))
	case RecUnmatched:
		n += binary.PutUvarint(w.buf[n:], uint64(r.RTT))
	}
	w.count++
	_, err := w.bw.Write(w.buf[:n])
	return err
}

// Count returns the number of records written.
func (w *CompactWriter) Count() uint64 { return w.count }

// Flush flushes buffered output (emitting the header if nothing was
// written).
func (w *CompactWriter) Flush() error {
	if !w.started {
		if err := w.writeHeader(); err != nil {
			return err
		}
	}
	return w.bw.Flush()
}

// Validation bounds for values decoded from the stream. Varints can encode
// any uint64, so a corrupt byte can claim absurd magnitudes; clamping keeps
// a flipped bit from turning into an overflowed time or a giant batch
// count. All bounds are far above anything a writer produces.
const (
	// maxCompactMicros bounds |when| and RTT in microseconds: the largest
	// value whose nanosecond conversion still fits in int64.
	maxCompactMicros = int64(^uint64(0)>>1) / 1000
	// maxCompactAddrDelta bounds |addr delta|: legitimate deltas between
	// 32-bit addresses fit in ±2^32.
	maxCompactAddrDelta = int64(1) << 33
	// maxCompactCount bounds an unmatched record's batch count. The
	// paper's worst DoS responders sent millions of duplicates; a
	// trillion is safely above any real batch.
	maxCompactCount = uint64(1) << 40
)

// CompactReader reads the compact format.
type CompactReader struct {
	br       *bufio.Reader
	hdr      Header
	prevAddr int64
	prevUS   int64
	lenient  bool
	done     bool
	rs       ReadStats
}

// NewCompactReader opens a compact dataset.
func NewCompactReader(r io.Reader) (*CompactReader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var h [headerSize]byte
	if _, err := io.ReadFull(br, h[:]); err != nil {
		return nil, fmt.Errorf("survey: reading compact header: %w", err)
	}
	if string(h[0:4]) != compactMagic {
		return nil, ErrBadFormat
	}
	if v := binary.BigEndian.Uint16(h[4:]); v != formatVersion {
		return nil, fmt.Errorf("survey: unsupported compact version %d", v)
	}
	return &CompactReader{
		br:  br,
		hdr: Header{Seed: binary.BigEndian.Uint64(h[8:]), Vantage: h[16]},
	}, nil
}

// Header returns the dataset header.
func (r *CompactReader) Header() Header { return r.hdr }

// SetLenient switches the reader into (or out of) lenient mode. The delta +
// varint encoding cannot be resynchronized after a corrupt byte — record
// boundaries are only known by decoding — so lenient mode bails out at the
// first bad record: the stream ends early with everything read so far kept,
// and the abandonment counted in Stats.Desyncs.
func (r *CompactReader) SetLenient(on bool) { r.lenient = on }

// Stats returns the reader's ReadStats.
func (r *CompactReader) Stats() ReadStats { return r.rs }

// bail converts a record-level error into early EOF in lenient mode.
func (r *CompactReader) bail(err error) (Record, error) {
	if r.lenient {
		r.done = true
		r.rs.Desyncs++
		return Record{}, io.EOF
	}
	return Record{}, err
}

// wrapVarint classifies a varint decode failure: a clean or partial end of
// stream is a truncation (io.ErrUnexpectedEOF), anything else — notably a
// 64-bit overflow — is corrupt data and wraps ErrBadFormat.
func wrapVarint(field string, err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("survey: compact %s: %w", field, err)
	}
	return fmt.Errorf("%w: compact %s: %v", ErrBadFormat, field, err)
}

// Read returns the next record, or io.EOF.
func (r *CompactReader) Read() (Record, error) {
	if r.done {
		return Record{}, io.EOF
	}
	tb, err := r.br.ReadByte()
	if err != nil {
		if err == io.EOF {
			return Record{}, io.EOF
		}
		return r.bail(fmt.Errorf("survey: reading compact record: %w", err))
	}
	typ := RecordType(tb)
	if typ < RecMatched || typ > RecError {
		return r.bail(fmt.Errorf("%w: compact record type %d", ErrBadFormat, tb))
	}
	addrD, err := binary.ReadUvarint(r.br)
	if err != nil {
		return r.bail(wrapVarint("addr", err))
	}
	whenD, err := binary.ReadUvarint(r.br)
	if err != nil {
		return r.bail(wrapVarint("when", err))
	}
	if d := unzigzag(addrD); d < -maxCompactAddrDelta || d > maxCompactAddrDelta {
		return r.bail(fmt.Errorf("%w: compact addr delta %d out of range", ErrBadFormat, d))
	}
	if us := r.prevUS + unzigzag(whenD); us < 0 || us > maxCompactMicros {
		return r.bail(fmt.Errorf("%w: compact timestamp %dus out of range", ErrBadFormat, us))
	}
	r.prevAddr += unzigzag(addrD)
	r.prevUS += unzigzag(whenD)
	rec := Record{
		Type: typ,
		Addr: ipaddr.Addr(uint32(r.prevAddr)),
		When: time.Duration(r.prevUS) * time.Microsecond,
	}
	switch typ {
	case RecMatched:
		v, err := binary.ReadUvarint(r.br)
		if err != nil {
			return r.bail(wrapVarint("rtt", err))
		}
		if v > uint64(maxCompactMicros) {
			return r.bail(fmt.Errorf("%w: compact rtt %dus out of range", ErrBadFormat, v))
		}
		rec.RTT = time.Duration(v) * time.Microsecond
	case RecUnmatched:
		v, err := binary.ReadUvarint(r.br)
		if err != nil {
			return r.bail(wrapVarint("count", err))
		}
		if v > maxCompactCount {
			return r.bail(fmt.Errorf("%w: compact batch count %d out of range", ErrBadFormat, v))
		}
		rec.RTT = time.Duration(v)
	}
	r.rs.Records++
	return rec, nil
}
