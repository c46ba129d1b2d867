package survey

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"
	"time"

	"timeouts/internal/ipaddr"
	"timeouts/internal/ipmeta"
	"timeouts/internal/netmodel"
	"timeouts/internal/simnet"
)

func TestSlotOfOctetProperties(t *testing.T) {
	seen := make(map[int]bool)
	for o := 0; o < 256; o++ {
		s := SlotOfOctet(byte(o))
		if s < 0 || s > 255 || seen[s] {
			t.Fatalf("slot %d for octet %d invalid or duplicated", s, o)
		}
		seen[s] = true
	}
	// Adjacent octets are half the cycle apart — the property the paper's
	// broadcast filter relies on (Figure 4).
	for o := 0; o < 255; o += 2 {
		d := SlotOfOctet(byte(o+1)) - SlotOfOctet(byte(o))
		if d != 128 {
			t.Errorf("octets %d,%d are %d slots apart, want 128", o, o+1, d)
		}
	}
}

func TestRecordFormatRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, Header{Seed: 99, Vantage: 'w'})
	recs := []Record{
		{Type: RecMatched, Addr: ipaddr.MustParse("1.2.3.4"), When: TruncMicro(123456789 * time.Nanosecond), RTT: TruncMicro(42 * time.Millisecond)},
		{Type: RecTimeout, Addr: ipaddr.MustParse("1.2.3.5"), When: TruncSecond(17 * time.Second)},
		{Type: RecUnmatched, Addr: ipaddr.MustParse("1.2.3.6"), When: TruncSecond(400 * time.Second), RTT: 3},
		{Type: RecError, Addr: ipaddr.MustParse("1.2.3.7"), When: TruncSecond(30 * time.Second)},
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if w.Count() != uint64(len(recs)) {
		t.Errorf("Count = %d", w.Count())
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if h := r.Header(); h.Seed != 99 || h.Vantage != 'w' {
		t.Errorf("header = %+v", h)
	}
	got, err := DrainSource(r)
	if err != nil {
		t.Fatalf("DrainSource: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d records", len(got))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Errorf("record %d: %+v != %+v", i, got[i], recs[i])
		}
	}
}

func TestRecordFormatRoundtripProperty(t *testing.T) {
	f := func(typ uint8, addr uint32, when int64, rtt int64) bool {
		rec := Record{
			Type: RecordType(typ%4) + RecMatched,
			Addr: ipaddr.Addr(addr),
			When: time.Duration(when),
			RTT:  time.Duration(rtt),
		}
		var buf bytes.Buffer
		w := NewWriter(&buf, Header{})
		if w.Write(rec) != nil || w.Flush() != nil {
			return false
		}
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		got, err := r.Read()
		if err != nil {
			return false
		}
		if _, err := r.Read(); err != io.EOF {
			return false
		}
		return got == rec
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("not a dataset at all....."))); err == nil {
		t.Error("garbage header accepted")
	}
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
}

func TestReaderRejectsBadRecordType(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, Header{})
	w.Flush()
	buf.Write(make([]byte, 21)) // record with type 0
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(); !errors.Is(err, ErrBadFormat) {
		t.Errorf("want ErrBadFormat, got %v", err)
	}
}

func TestTruncation(t *testing.T) {
	d := 1234567891 * time.Nanosecond
	if TruncMicro(d)%time.Microsecond != 0 {
		t.Error("TruncMicro not microsecond-aligned")
	}
	if TruncSecond(d) != time.Second {
		t.Errorf("TruncSecond = %v", TruncSecond(d))
	}
}

// runTinySurvey runs a short survey over a small population.
func runTinySurvey(t *testing.T, cycles int, seed uint64) ([]Record, Stats) {
	t.Helper()
	pop := netmodel.New(netmodel.Config{Seed: seed, Blocks: 48})
	model := netmodel.NewModel(pop)
	model.AddVantage(VantageW.Addr, VantageW.Continent)
	sched := &simnet.Scheduler{}
	net := simnet.NewNetwork(sched, model)
	var mem MemWriter
	st, err := Run(net, Config{
		Vantage: VantageW,
		Blocks:  pop.Blocks(),
		Cycles:  cycles,
		Seed:    seed,
	}, &mem)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return mem.Records, st
}

func TestSurveyAccounting(t *testing.T) {
	recs, st := runTinySurvey(t, 3, 11)
	if st.Probes != uint64(48*256*3) {
		t.Errorf("Probes = %d", st.Probes)
	}
	// Every probe must be accounted for: matched, timed out, or errored.
	var matched, timeouts, unmatched, errors uint64
	for _, r := range recs {
		switch r.Type {
		case RecMatched:
			matched++
		case RecTimeout:
			timeouts++
		case RecUnmatched:
			unmatched++
		case RecError:
			errors++
		}
	}
	if matched != st.Matched || timeouts != st.Timeouts || errors != st.Errors {
		t.Errorf("record counts (%d,%d,%d) disagree with stats (%d,%d,%d)",
			matched, timeouts, errors, st.Matched, st.Timeouts, st.Errors)
	}
	if matched+timeouts+errors != st.Probes {
		t.Errorf("probes not fully accounted: %d+%d+%d != %d", matched, timeouts, errors, st.Probes)
	}
	if st.ResponseRate() < 0.08 || st.ResponseRate() > 0.5 {
		t.Errorf("response rate = %.2f", st.ResponseRate())
	}
}

func TestSurveyDeterministic(t *testing.T) {
	r1, s1 := runTinySurvey(t, 2, 5)
	r2, s2 := runTinySurvey(t, 2, 5)
	if s1 != s2 {
		t.Fatalf("stats differ: %+v vs %+v", s1, s2)
	}
	if len(r1) != len(r2) {
		t.Fatalf("record counts differ: %d vs %d", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, r1[i], r2[i])
		}
	}
}

func TestSurveyMatchedRTTPrecisionAndCap(t *testing.T) {
	recs, _ := runTinySurvey(t, 3, 11)
	sawLate := false
	for _, r := range recs {
		if r.Type != RecMatched {
			continue
		}
		if r.RTT%time.Microsecond != 0 || r.When%time.Microsecond != 0 {
			t.Fatal("matched record not microsecond-precise")
		}
		if r.RTT < 0 {
			t.Fatal("negative RTT")
		}
		// The sweep granularity admits matches past the 3s timeout but
		// never past timeout+sweep.
		if r.RTT > 3*time.Second {
			sawLate = true
			if r.RTT > 7*time.Second {
				t.Errorf("matched at %v, beyond timeout+sweep", r.RTT)
			}
		}
	}
	_ = sawLate // late matches are possible but not guaranteed at tiny scale
}

func TestSurveyTimeoutRecordsSecondPrecision(t *testing.T) {
	recs, _ := runTinySurvey(t, 2, 11)
	for _, r := range recs {
		if r.Type == RecTimeout || r.Type == RecUnmatched || r.Type == RecError {
			if r.When%time.Second != 0 {
				t.Fatalf("%v record has sub-second timestamp %v", r.Type, r.When)
			}
		}
	}
}

func TestSurveyResponseDrop(t *testing.T) {
	pop := netmodel.New(netmodel.Config{Seed: 3, Blocks: 32})
	model := netmodel.NewModel(pop)
	model.AddVantage(VantageJ.Addr, VantageJ.Continent)
	sched := &simnet.Scheduler{}
	net := simnet.NewNetwork(sched, model)
	var mem MemWriter
	st, err := Run(net, Config{
		Vantage:          VantageJ,
		Blocks:           pop.Blocks(),
		Cycles:           2,
		Seed:             3,
		ResponseDropRate: 0.999,
	}, &mem)
	if err != nil {
		t.Fatal(err)
	}
	if st.ResponseRate() > 0.005 {
		t.Errorf("broken vantage response rate = %.4f, want ~0", st.ResponseRate())
	}
	if st.Dropped == 0 {
		t.Error("no responses dropped")
	}
}

func TestSurveyRequiresBlocks(t *testing.T) {
	sched := &simnet.Scheduler{}
	pop := netmodel.New(netmodel.Config{Seed: 1, Blocks: 32})
	model := netmodel.NewModel(pop)
	net := simnet.NewNetwork(sched, model)
	if _, err := Run(net, Config{}, &MemWriter{}); err == nil {
		t.Error("survey with no blocks should fail")
	}
}

func TestVantageContinents(t *testing.T) {
	if VantageW.Continent != ipmeta.NorthAmerica || VantageJ.Continent != ipmeta.Asia ||
		VantageG.Continent != ipmeta.Europe {
		t.Error("vantage continents wrong")
	}
	seen := map[ipaddr.Addr]bool{}
	for _, v := range Vantages {
		if seen[v.Addr] {
			t.Fatal("duplicate vantage address")
		}
		seen[v.Addr] = true
	}
}

// readCSV parses a whole CSV dataset.
func readCSV(r io.Reader) ([]Record, error) {
	cr, err := NewCSVReader(r)
	if err != nil {
		return nil, err
	}
	return DrainSource(cr)
}

func TestCSVRoundtrip(t *testing.T) {
	recs, _ := runTinySurvey(t, 2, 11)
	var buf bytes.Buffer
	cw := NewCSVWriter(&buf)
	for _, r := range recs {
		if err := cw.Write(r); err != nil {
			t.Fatalf("CSVWriter.Write: %v", err)
		}
	}
	if err := cw.Flush(); err != nil {
		t.Fatalf("CSVWriter.Flush: %v", err)
	}
	got, err := readCSV(&buf)
	if err != nil {
		t.Fatalf("reading csv: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("rows = %d, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("row %d: %+v != %+v", i, got[i], recs[i])
		}
	}
}

func TestCSVRejectsMalformed(t *testing.T) {
	if _, err := readCSV(bytes.NewReader(nil)); err == nil {
		t.Error("empty csv accepted")
	}
	bad := "type,addr,when_ns,rtt_ns\nbogus,1.2.3.4,0,0\n"
	if _, err := readCSV(bytes.NewReader([]byte(bad))); err == nil {
		t.Error("unknown record type accepted")
	}
	bad2 := "type,addr,when_ns,rtt_ns\nmatched,999.2.3.4,0,0\n"
	if _, err := readCSV(bytes.NewReader([]byte(bad2))); err == nil {
		t.Error("bad address accepted")
	}
}

func TestCompactRoundtrip(t *testing.T) {
	recs, _ := runTinySurvey(t, 3, 11)
	var buf bytes.Buffer
	w := NewCompactWriter(&buf, Header{Seed: 11, Vantage: 'c'})
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	compactSize := buf.Len()

	r, err := NewCompactReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if h := r.Header(); h.Seed != 11 || h.Vantage != 'c' {
		t.Errorf("header = %+v", h)
	}
	got, err := DrainSource(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d of %d records", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d: %+v != %+v", i, got[i], recs[i])
		}
	}

	// The compact encoding should beat the fixed-width format comfortably.
	fixedSize := headerSize + recordSize*len(recs)
	if compactSize*2 > fixedSize {
		t.Errorf("compact %d bytes vs fixed %d: less than 2x saving", compactSize, fixedSize)
	}
}

func TestCompactRejectsFixedFormat(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, Header{})
	w.Flush()
	if _, err := NewCompactReader(&buf); err != ErrBadFormat {
		t.Errorf("want ErrBadFormat, got %v", err)
	}
}

func TestCompactRejectsCorruptRecordType(t *testing.T) {
	var buf bytes.Buffer
	w := NewCompactWriter(&buf, Header{})
	w.Flush()
	buf.WriteByte(0xEE)
	r, err := NewCompactReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(); !errors.Is(err, ErrBadFormat) {
		t.Errorf("want ErrBadFormat, got %v", err)
	}
}
