package advisor

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"timeouts/internal/core"
	"timeouts/internal/ipaddr"
	"timeouts/internal/obs"
)

// The checkpoint is advisord's durability story: a versioned, checksummed,
// deterministic binary snapshot of the whole ingest store — sketches,
// per-prefix freshness stamps, ingest counters, and the open-probe
// attribution state — written via temp-file + atomic rename so a crash at
// any instant leaves either the previous generation or the new one on disk,
// never a torn file that parses. Recovery loads the newest generation whose
// checksum validates, skipping truncated or corrupt ones, and the recovered
// store republishes a snapshot byte-identical to the one checkpointed
// (TestCheckpointRecoveryByteIdentity) — the "recovered state is some
// previously published epoch, never fabricated" invariant the chaos suite
// hammers with kill-points at every durable step.

const (
	// ckptMagic identifies checkpoint files; the trailing digit is the
	// format version, so a version bump is a magic mismatch — old readers
	// reject new files outright instead of misparsing them.
	ckptMagic = "TADVCKP1"
	// ckptExt is the checkpoint generation suffix; temp files add ".tmp"
	// and are ignored by recovery.
	ckptExt = ".tadv"
	// killChunk bounds the bytes any single durable write moves, so the
	// simulated-kill hook gets a crash opportunity every few hundred bytes
	// of checkpoint — fine enough that the chaos sweep exercises torn
	// writes inside the prefix table, not just between files.
	killChunk = 512
	// maxCkptPrefixes bounds the decoder's allocations: a /24-keyed store
	// cannot hold more than 2^24 prefixes, so any larger count is
	// corruption, not data.
	maxCkptPrefixes = 1 << 24
)

var (
	// ErrCheckpointCorrupt reports a checkpoint that failed structural
	// validation or its checksum — the generation is skipped by recovery.
	ErrCheckpointCorrupt = errors.New("advisor: checkpoint corrupt")
	// ErrCrashed is returned by Checkpointer.Save when the injected
	// kill-point hook fired: the simulated process death leaves whatever
	// bytes already reached the disk, exactly like a real crash.
	ErrCrashed = errors.New("advisor: simulated crash at kill-point")
)

var ckptCRC = crc32.MakeTable(crc32.Castagnoli)

// EncodeCheckpoint writes st and the epoch of its last published snapshot as
// one checkpoint: magic, varint-encoded body with every map iterated in
// sorted order (so the encoding is a pure function of the store's state),
// and a CRC-32C trailer over everything before it. A single flipped byte
// anywhere — magic, body, or trailer — is a burst error of at most eight
// bits, which CRC-32 detects unconditionally, so tampered checkpoints cannot
// decode (FuzzCheckpointRoundTrip).
func EncodeCheckpoint(w io.Writer, st *Store, epoch uint64) error {
	crc := crc32.New(ckptCRC)
	bw := bufio.NewWriter(io.MultiWriter(w, crc))
	var scratch [binary.MaxVarintLen64]byte
	put := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	if _, err := bw.WriteString(ckptMagic); err != nil {
		return err
	}
	for _, v := range []uint64{epoch, st.records, st.matched, st.delayed} {
		if err := put(v); err != nil {
			return err
		}
	}

	// The store's rank order: the prefixes that hold samples (an empty
	// sketch carries no advice and no freshness), ascending.
	prefixes := st.rankOrder()
	if err := put(uint64(len(prefixes))); err != nil {
		return err
	}
	for _, p := range prefixes {
		sk := st.sketches[p]
		if err := put(uint64(p)); err != nil {
			return err
		}
		if err := put(uint64(st.updated[p])); err != nil {
			return err
		}
		nnz := 0
		for _, c := range sk.counts {
			if c != 0 {
				nnz++
			}
		}
		if err := put(uint64(nnz)); err != nil {
			return err
		}
		for i, c := range sk.counts {
			if c == 0 {
				continue
			}
			if err := put(uint64(i)); err != nil {
				return err
			}
			if err := put(c); err != nil {
				return err
			}
		}
	}

	// The open rings, in ascending address order; the store only brings a
	// ring to life to open a probe on it, so none is empty. bufio.Writer
	// errors are sticky: the Flush below reports any failure in here.
	if err := put(uint64(st.open.Len())); err != nil {
		return err
	}
	st.open.Range(func(a ipaddr.Addr, ring *core.OpenProbes) {
		put(uint64(a))
		put(uint64(ring.Len()))
		for i := 0; i < ring.Len(); i++ {
			put(uint64(ring.Send(i)))
			b := byte(0)
			if ring.Resolved(i) {
				b = 1
			}
			bw.WriteByte(b)
		}
	})

	if err := bw.Flush(); err != nil {
		return err
	}
	var trailer [4]byte
	binary.BigEndian.PutUint32(trailer[:], crc.Sum32())
	_, err := w.Write(trailer[:])
	return err
}

// crcReader hashes every payload byte it yields, so the decoder can compare
// the running CRC against the trailer without buffering the checkpoint.
type crcReader struct {
	r   *bufio.Reader
	h   hash.Hash32
	one [1]byte
}

func (c *crcReader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err != nil {
		return 0, err
	}
	c.one[0] = b
	c.h.Write(c.one[:])
	return b, nil
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.h.Write(p[:n])
	return n, err
}

// DecodeCheckpoint reads one checkpoint and rebuilds the store it encodes,
// returning it with the epoch it was checkpointed at. Every structural
// violation — bad magic, out-of-range counts, non-canonical ordering,
// truncation, trailing garbage, checksum mismatch — rejects the whole
// checkpoint with ErrCheckpointCorrupt: a generation is applied completely
// or not at all, never partially. The accepted form is exactly the canonical
// encoding, so decode∘encode is the identity on valid checkpoints.
func DecodeCheckpoint(r io.Reader) (*Store, uint64, error) {
	cr := &crcReader{r: bufio.NewReader(r), h: crc32.New(ckptCRC)}
	corrupt := func(format string, args ...any) (*Store, uint64, error) {
		return nil, 0, fmt.Errorf("%w: %s", ErrCheckpointCorrupt, fmt.Sprintf(format, args...))
	}
	var magic [len(ckptMagic)]byte
	if _, err := io.ReadFull(cr, magic[:]); err != nil {
		return corrupt("reading magic: %v", err)
	}
	if string(magic[:]) != ckptMagic {
		return corrupt("bad magic %q", magic[:])
	}
	get := func() (uint64, error) { return binary.ReadUvarint(cr) }

	st := NewStore()
	var epoch uint64
	var err error
	if epoch, err = get(); err != nil {
		return corrupt("epoch: %v", err)
	}
	if st.records, err = get(); err != nil {
		return corrupt("records: %v", err)
	}
	if st.matched, err = get(); err != nil {
		return corrupt("matched: %v", err)
	}
	if st.delayed, err = get(); err != nil {
		return corrupt("delayed: %v", err)
	}

	nPrefix, err := get()
	if err != nil {
		return corrupt("prefix count: %v", err)
	}
	if nPrefix > maxCkptPrefixes {
		return corrupt("prefix count %d exceeds the /24 space", nPrefix)
	}
	prevPrefix := int64(-1)
	for i := uint64(0); i < nPrefix; i++ {
		pv, err := get()
		if err != nil {
			return corrupt("prefix %d: %v", i, err)
		}
		if pv >= 1<<24 || int64(pv) <= prevPrefix {
			return corrupt("prefix %d out of range or order", i)
		}
		prevPrefix = int64(pv)
		p := ipaddr.Prefix24(pv)
		upd, err := get()
		if err != nil {
			return corrupt("prefix %d freshness: %v", i, err)
		}
		nnz, err := get()
		if err != nil {
			return corrupt("prefix %d bucket count: %v", i, err)
		}
		if nnz == 0 || nnz > uint64(numBuckets) {
			return corrupt("prefix %d has %d buckets", i, nnz)
		}
		sk := NewSketch()
		prevBucket := -1
		for j := uint64(0); j < nnz; j++ {
			bi, err := get()
			if err != nil {
				return corrupt("prefix %d bucket %d index: %v", i, j, err)
			}
			if bi >= uint64(numBuckets) || int(bi) <= prevBucket {
				return corrupt("prefix %d bucket %d out of range or order", i, j)
			}
			prevBucket = int(bi)
			c, err := get()
			if err != nil {
				return corrupt("prefix %d bucket %d count: %v", i, j, err)
			}
			if c == 0 {
				return corrupt("prefix %d bucket %d has zero count", i, j)
			}
			sk.counts[bi] = c
			sk.n += c
		}
		st.sketches[p] = sk
		if upd != 0 {
			st.updated[p] = int64(upd)
		}
	}
	st.rerank = true

	nOpen, err := get()
	if err != nil {
		return corrupt("open count: %v", err)
	}
	if nOpen > 1<<32 {
		return corrupt("open count %d exceeds the address space", nOpen)
	}
	prevAddr := int64(-1)
	for i := uint64(0); i < nOpen; i++ {
		av, err := get()
		if err != nil {
			return corrupt("open %d addr: %v", i, err)
		}
		if av >= 1<<32 || int64(av) <= prevAddr {
			return corrupt("open %d addr out of range or order", i)
		}
		prevAddr = int64(av)
		n, err := get()
		if err != nil {
			return corrupt("open %d ring size: %v", i, err)
		}
		if n < 1 || n > 2 {
			return corrupt("open %d ring size %d", i, n)
		}
		// A decoded probe's response count is not in the format: the store
		// never reads it.
		ring, _ := st.open.Get(ipaddr.Addr(av))
		for j := 0; j < int(n); j++ {
			send, err := get()
			if err != nil {
				return corrupt("open %d send %d: %v", i, j, err)
			}
			b, err := cr.ReadByte()
			if err != nil {
				return corrupt("open %d resolved %d: %v", i, j, err)
			}
			if b > 1 {
				return corrupt("open %d resolved %d value %d", i, j, b)
			}
			ring.Push(time.Duration(send), b == 1)
		}
	}

	sum := cr.h.Sum32()
	var trailer [4]byte
	if _, err := io.ReadFull(cr.r, trailer[:]); err != nil {
		return corrupt("reading checksum: %v", err)
	}
	if binary.BigEndian.Uint32(trailer[:]) != sum {
		return corrupt("checksum mismatch")
	}
	if _, err := cr.r.ReadByte(); err != io.EOF {
		return corrupt("trailing garbage after checksum")
	}
	return st, epoch, nil
}

// Checkpointer manages durable checkpoint generations in a directory:
// Save writes via temp-file + atomic rename and keeps the newest Keep
// generations; Load recovers the newest generation that validates. The zero
// value with just Dir set is usable; a nil *Checkpointer no-ops Save so
// call sites can thread an optional checkpointer without guards.
type Checkpointer struct {
	// Dir is the checkpoint directory, created on first Save.
	Dir string
	// Keep is how many generations survive GC (default 3). The newest
	// generation can always be half-written by a crash, so Keep >= 2 is
	// what makes recovery's fall-back-to-prior-generation path real.
	Keep int
	// Kill is the chaos suite's simulated-crash hook: it is consulted with
	// a global operation sequence number before every durable step (temp
	// create, each chunk write, sync, rename, GC), and returning true
	// abandons the save exactly there with ErrCrashed, leaving whatever
	// bytes already reached the disk. Production leaves it nil.
	Kill func(op uint64) bool

	ops uint64 // durable-step sequence, consumed by Kill

	lastSave atomic.Int64 // unix ns of the last successful Save; 0 = none

	obsSaves   *obs.Counter
	obsErrors  *obs.Counter
	obsLoaded  *obs.Counter
	obsSkipped *obs.Counter
	obsEpoch   *obs.Gauge
	obsDur     *obs.Histogram
	obsBytes   *obs.Gauge
}

// SetObserver registers the checkpointer's metrics on reg. All are
// diagnostic-class: they count durable I/O, not the seed-determined stream.
// advisor.checkpoint.save is a latency histogram of successful save wall
// times — a checkpoint that drifts toward the paper's turtle thresholds is
// an advisor whose durability is becoming its own high-delay tail.
func (c *Checkpointer) SetObserver(reg *obs.Registry) {
	c.obsSaves = reg.DiagCounter("advisor.checkpoint.saves")
	c.obsErrors = reg.DiagCounter("advisor.checkpoint.save_errors")
	c.obsLoaded = reg.DiagCounter("advisor.recovery.loaded")
	c.obsSkipped = reg.DiagCounter("advisor.recovery.skipped_generations")
	c.obsEpoch = reg.DiagGauge("advisor.checkpoint.epoch")
	c.obsDur = reg.DiagHistogram("advisor.checkpoint.save")
	c.obsBytes = reg.DiagGauge("advisor.checkpoint.bytes_hwm")
}

// LastSaveAt returns the wall time (unix ns) of the last successful Save,
// 0 before the first. Nil-safe, so /healthz can report checkpoint age
// without caring whether durability is configured.
func (c *Checkpointer) LastSaveAt() int64 {
	if c == nil {
		return 0
	}
	return c.lastSave.Load()
}

// CollectProm exports scrape-time durability series: seconds since the last
// successful save (-1 before the first — "no data", not "fresh") and how
// many generations the directory currently holds.
func (c *Checkpointer) CollectProm(w *obs.PromWriter) {
	if c == nil {
		return
	}
	age := -1.0
	if at := c.lastSave.Load(); at != 0 {
		age = time.Since(time.Unix(0, at)).Seconds()
	}
	w.Type("advisor_checkpoint_age_seconds", "gauge")
	w.Sample("advisor_checkpoint_age_seconds", age)
	w.Type("advisor_checkpoint_generations", "gauge")
	w.Sample("advisor_checkpoint_generations", float64(len(c.generations())))
}

// keep returns the generation retention count.
func (c *Checkpointer) keep() int {
	if c.Keep < 1 {
		return 3
	}
	return c.Keep
}

// kill consumes one durable-step sequence number and reports whether the
// simulated crash fires there.
func (c *Checkpointer) kill() bool {
	op := c.ops
	c.ops++
	return c.Kill != nil && c.Kill(op)
}

// genName returns the file name for an epoch's generation; zero-padded hex
// epochs make lexicographic order equal numeric order, so recovery can sort
// directory names directly.
func genName(epoch uint64) string { return fmt.Sprintf("ckpt-%016x%s", epoch, ckptExt) }

// killWriter moves bytes to the file in killChunk-sized steps, consulting
// the crash hook before each; a hit writes roughly half the chunk — a torn
// write, as a real crash mid-write would leave — and fails the save.
type killWriter struct {
	c   *Checkpointer
	f   *os.File
	err error
}

func (k *killWriter) Write(p []byte) (int, error) {
	if k.err != nil {
		return 0, k.err
	}
	var written int
	for len(p) > 0 {
		chunk := p
		if len(chunk) > killChunk {
			chunk = chunk[:killChunk]
		}
		if k.c.kill() {
			n, _ := k.f.Write(chunk[:len(chunk)/2])
			k.err = ErrCrashed
			return written + n, k.err
		}
		n, err := k.f.Write(chunk)
		written += n
		if err != nil {
			k.err = err
			return written, err
		}
		p = p[len(chunk):]
	}
	return written, nil
}

// Save checkpoints st under the given epoch: encode to a temp file, fsync,
// atomically rename into place, then GC generations beyond Keep. It returns
// the generation's path. On ErrCrashed everything is left exactly as the
// simulated death would — a partial temp file, or a renamed generation whose
// older siblings were not yet collected — which is precisely the state space
// the chaos suite proves recovery handles. A nil receiver no-ops.
func (c *Checkpointer) Save(st *Store, epoch uint64) (string, error) {
	if c == nil {
		return "", nil
	}
	start := time.Now()
	path, err := c.save(st, epoch)
	if err != nil {
		c.obsErrors.Inc()
		return "", err
	}
	c.obsSaves.Inc()
	c.obsEpoch.Observe(int64(epoch))
	c.obsDur.Observe(time.Since(start))
	if fi, statErr := os.Stat(path); statErr == nil {
		c.obsBytes.Observe(fi.Size())
	}
	c.lastSave.Store(time.Now().UnixNano())
	return path, nil
}

func (c *Checkpointer) save(st *Store, epoch uint64) (string, error) {
	if err := os.MkdirAll(c.Dir, 0o755); err != nil {
		return "", err
	}
	final := filepath.Join(c.Dir, genName(epoch))
	tmp := final + ".tmp"
	if c.kill() {
		return "", ErrCrashed
	}
	f, err := os.Create(tmp)
	if err != nil {
		return "", err
	}
	kw := &killWriter{c: c, f: f}
	if err := EncodeCheckpoint(kw, st, epoch); err != nil {
		f.Close()
		if !errors.Is(err, ErrCrashed) {
			os.Remove(tmp) // a real write error is not a simulated death
		}
		return "", err
	}
	if c.kill() {
		f.Close()
		return "", ErrCrashed
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return "", err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return "", err
	}
	if c.kill() {
		return "", ErrCrashed
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return "", err
	}
	syncDir(c.Dir)
	if c.kill() {
		return final, ErrCrashed
	}
	c.gc()
	return final, nil
}

// gc removes generations beyond Keep and stray temp files from abandoned
// saves. Best-effort: GC failures never fail a save whose rename landed.
func (c *Checkpointer) gc() {
	names := c.generations()
	for i, name := range names {
		if i < len(names)-c.keep() {
			os.Remove(filepath.Join(c.Dir, name))
		}
	}
	entries, err := os.ReadDir(c.Dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ckptExt+".tmp") {
			os.Remove(filepath.Join(c.Dir, e.Name()))
		}
	}
}

// generations lists checkpoint file names sorted ascending (oldest first).
func (c *Checkpointer) generations() []string {
	entries, err := os.ReadDir(c.Dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ckptExt) {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names
}

// syncDir fsyncs a directory so a rename is durable before GC deletes what
// it superseded. Best-effort: not all filesystems support directory fsync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// RecoveryStats reports what Load found.
type RecoveryStats struct {
	// Candidates is how many checkpoint generations the directory held.
	Candidates int
	// Skipped counts generations rejected as truncated or corrupt before
	// one validated (or the directory ran out).
	Skipped int
	// SkippedNames are the rejected generations, newest first.
	SkippedNames []string
}

// Load recovers the newest valid checkpoint generation: candidates are tried
// newest-first, each validated end to end (structure + checksum) before its
// store is returned, and invalid generations — the half-written file a crash
// mid-save leaves, a bit-rotted older one — are skipped and counted. A
// missing or empty directory is a fresh start, not an error: Load returns a
// nil store and zero epoch.
func (c *Checkpointer) Load() (*Store, uint64, RecoveryStats, error) {
	var rs RecoveryStats
	names := c.generations()
	rs.Candidates = len(names)
	for i := len(names) - 1; i >= 0; i-- {
		path := filepath.Join(c.Dir, names[i])
		f, err := os.Open(path)
		if err != nil {
			rs.Skipped++
			rs.SkippedNames = append(rs.SkippedNames, names[i])
			c.obsSkipped.Inc()
			continue
		}
		st, epoch, derr := DecodeCheckpoint(f)
		f.Close()
		if derr != nil {
			rs.Skipped++
			rs.SkippedNames = append(rs.SkippedNames, names[i])
			c.obsSkipped.Inc()
			continue
		}
		c.obsLoaded.Inc()
		c.obsEpoch.Observe(int64(epoch))
		return st, epoch, rs, nil
	}
	return nil, 0, rs, nil
}

// CheckpointAge returns how stale a just-recovered store is: the gap between
// now and the newest per-prefix freshness stamp it holds (zero for an empty
// store). Operators use it to decide whether recovered advice is still worth
// serving before fresh ingest catches up; the staleness TTL enforces the
// same judgement per prefix at lookup time.
func CheckpointAge(st *Store, now int64) time.Duration {
	if st == nil {
		return 0
	}
	var newest int64
	for _, t := range st.updated {
		if t > newest {
			newest = t
		}
	}
	if newest == 0 || now < newest {
		return 0
	}
	return time.Duration(now - newest)
}
