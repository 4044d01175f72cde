package controlplane

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
)

// This file is the durability layer of the control plane: an
// append-only, length-prefixed, CRC-guarded write-ahead log of
// admission events, and the log is the state — an admission costs one
// synced append and recovery replays the log. The record framing
// reuses the wire protocol's decoder discipline — a version byte, a
// typed kind byte, and a size that is validated before any allocation
// — so a torn or hostile log errors with a typed reason instead of
// panicking or admitting a half-written snapshot.
//
// Log layout (one record):
//
//	offset 0      version byte (WALVersion1)
//	offset 1      record kind byte
//	offset 2..5   payload length, big-endian uint32
//	offset 6..13  LSN, big-endian uint64 (strictly increasing)
//	offset 14..17 CRC-32C, big-endian uint32, over bytes 0..13 ++ payload
//	offset 18..   payload (JSON)
//
// A submit record's spec is the canonical bytes admission fingerprinted
// (speccodec.go): encoded once per admission, hashed, and logged as they
// are. Replay decodes them and re-derives the fingerprint with the same
// appender.
//
// Crash semantics: the only damage an append-crash can leave is a
// truncated final record (the torn tail). Recovery replays the longest
// clean prefix — every record that decodes with a valid header, a
// monotonic LSN and a matching CRC — and reports the discarded tail as
// a typed *TornTailError. A record that fails any check never reaches
// the registry, so a half-written snapshot is never admitted. A write
// or fsync that fails while the daemon runs stops the store instead:
// the record it left (whole, partial or absent) stays the last one, and
// the restart's replay decides its fate.
//
// Legacy checkpoints: earlier builds compacted the log into
// checkpoint.json every 64 events by default, re-encoding every
// admitted spec while compacting nothing but superseded limits records
// (the registry never deletes). The daemon writes no checkpoint now,
// but OpenStore still loads a version-1 one read-only: it replays only
// the log records past the checkpoint's LSN (a crash between the
// checkpoint rename and the log truncation left older ones behind) and
// sweeps a leftover checkpoint.json.tmp. New records append after the
// old tail. See DESIGN.md §5.10.

// WALVersion1 is the initial WAL record format version.
const WALVersion1 byte = 1

// RecordKind tags the payload carried by one WAL record.
type RecordKind byte

// WAL record kinds. Like wire frame types, unknown kinds are a typed
// decode error — a future format bump, not a crash.
const (
	// RecordSubmit is one durable admission event: the full normalized
	// snapshot as admitted (tenant, lineage, fingerprint, seq, spec).
	RecordSubmit RecordKind = 1
	// RecordLimits is one durable runtime limits reconfiguration (the
	// effective limits after the change).
	RecordLimits RecordKind = 2
)

// maxRecordKind is the highest kind this build understands.
const maxRecordKind = RecordLimits

// walHeaderLen is the fixed record header size: version byte, kind
// byte, uint32 length, uint64 LSN, uint32 CRC.
const walHeaderLen = 18

// MaxWALRecordBytes bounds one record's payload, validated before any
// allocation — the same discipline as MaxFrameBytes (a snapshot that
// fits a wire frame fits a WAL record).
const MaxWALRecordBytes = MaxFrameBytes

// WAL decoding errors.
var (
	// ErrWALRecord reports a structurally invalid record (bad version,
	// unknown kind, oversize length, CRC mismatch, non-monotonic LSN).
	ErrWALRecord = errors.New("controlplane: malformed WAL record")
	// ErrTornTail reports that the log ends in a partial or corrupt
	// record — the expected shape after an append-crash. Recovery keeps
	// the clean prefix; the typed error carries where and why.
	ErrTornTail = errors.New("controlplane: torn WAL tail")
)

// TornTailError is the typed torn-tail report: the byte offset of the
// first unreadable record (== the length of the clean prefix) and the
// decoder's reason. It unwraps to ErrTornTail.
type TornTailError struct {
	// Offset is the byte offset of the clean prefix's end.
	Offset int64
	// Reason is the decoder's classification of the damage.
	Reason string
}

// Error implements error.
func (e *TornTailError) Error() string {
	return fmt.Sprintf("controlplane: torn WAL tail at offset %d: %s", e.Offset, e.Reason)
}

// Unwrap makes errors.Is(err, ErrTornTail) hold.
func (e *TornTailError) Unwrap() error { return ErrTornTail }

// WALRecord is one decoded log record.
type WALRecord struct {
	// LSN is the record's log sequence number, strictly increasing
	// across the log (checkpoints compact up to an LSN; appends
	// continue past it).
	LSN uint64
	// Kind tags the payload.
	Kind RecordKind
	// Payload is the record's JSON body.
	Payload []byte
}

// SubmitRecord is the payload of a RecordSubmit: the admitted snapshot
// exactly as the registry holds it, its spec in the canonical bytes the
// fingerprint hashes (the encoding of json.Marshal, written once at
// admission by appendSubmitRecord). Replay re-normalizes the spec and
// re-derives the fingerprint, so a corrupted or tampered record is a
// typed error, never a silently wrong registry.
type SubmitRecord struct {
	Tenant      string         `json:"tenant"`
	Name        string         `json:"name,omitempty"`
	Parent      string         `json:"parent,omitempty"`
	Fingerprint string         `json:"fingerprint"`
	Seq         uint64         `json:"seq"`
	Spec        DeploymentSpec `json:"spec"`
}

// LimitsRecord is the payload of a RecordLimits: the effective
// admission limits after a runtime reconfiguration.
type LimitsRecord struct {
	Limits Limits `json:"limits"`
}

// Checkpoint is the version-1 full-state file earlier builds compacted
// the log into: everything replay needs to rebuild the control plane
// without the records up to its LSN. Snapshots are in admission (Seq)
// order. OpenStore loads it read-only.
type Checkpoint struct {
	// FormatVersion versions the checkpoint encoding.
	FormatVersion int `json:"format_version"`
	// LSN is the last WAL record compacted into this checkpoint; replay
	// skips records at or below it.
	LSN uint64 `json:"lsn"`
	// Seq is the registry's global admission sequence counter.
	Seq uint64 `json:"seq"`
	// Limits are the effective admission limits.
	Limits Limits `json:"limits"`
	// Snapshots are every tenant's admitted snapshots in Seq order.
	Snapshots []SubmitRecord `json:"snapshots"`
}

// checkpointFormatVersion is the checkpoint encoding this build
// accepts.
const checkpointFormatVersion = 1

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// appendWALRecord appends the encoded record to dst and returns the
// extended slice. Encoding is the byte-for-byte inverse of
// decodeWALRecord; the golden WAL corpus pins it.
func appendWALRecord(dst []byte, rec WALRecord) []byte {
	start := len(dst)
	dst = append(dst, WALVersion1, byte(rec.Kind))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(rec.Payload)))
	dst = binary.BigEndian.AppendUint64(dst, rec.LSN)
	crc := crc32.Update(0, crcTable, dst[start:start+14])
	crc = crc32.Update(crc, crcTable, rec.Payload)
	dst = binary.BigEndian.AppendUint32(dst, crc)
	return append(dst, rec.Payload...)
}

// decodeWALRecord decodes one record at data[off:]. It validates the
// version, kind, length and CRC before trusting the payload, and
// returns the offset just past the record. Errors classify the damage;
// io-style truncation and corruption both come back as ErrWALRecord
// wraps so decodeWAL can convert them to a torn-tail report.
func decodeWALRecord(data []byte, off int) (WALRecord, int, error) {
	if len(data)-off < walHeaderLen {
		return WALRecord{}, off, fmt.Errorf("%w: truncated header (%d of %d bytes)",
			ErrWALRecord, len(data)-off, walHeaderLen)
	}
	h := data[off : off+walHeaderLen]
	if h[0] != WALVersion1 {
		return WALRecord{}, off, fmt.Errorf("%w: version %d (this build speaks %d)", ErrWALRecord, h[0], WALVersion1)
	}
	kind := RecordKind(h[1])
	if kind == 0 || kind > maxRecordKind {
		return WALRecord{}, off, fmt.Errorf("%w: unknown kind %d", ErrWALRecord, h[1])
	}
	n := binary.BigEndian.Uint32(h[2:6])
	if n > MaxWALRecordBytes {
		return WALRecord{}, off, fmt.Errorf("%w: declared %d bytes exceeds MaxWALRecordBytes", ErrWALRecord, n)
	}
	if len(data)-off-walHeaderLen < int(n) {
		return WALRecord{}, off, fmt.Errorf("%w: truncated payload (%d of %d bytes)",
			ErrWALRecord, len(data)-off-walHeaderLen, n)
	}
	payload := data[off+walHeaderLen : off+walHeaderLen+int(n)]
	crc := crc32.Update(0, crcTable, h[:14])
	crc = crc32.Update(crc, crcTable, payload)
	if got := binary.BigEndian.Uint32(h[14:18]); got != crc {
		return WALRecord{}, off, fmt.Errorf("%w: CRC mismatch (stored %08x, computed %08x)", ErrWALRecord, got, crc)
	}
	rec := WALRecord{
		LSN:  binary.BigEndian.Uint64(h[6:14]),
		Kind: kind,
	}
	if n > 0 {
		rec.Payload = append([]byte(nil), payload...)
	}
	return rec, off + walHeaderLen + int(n), nil
}

// decodeWAL decodes the longest clean prefix of a log: records with
// valid headers, matching CRCs and strictly increasing non-zero LSNs.
// The clean prefix length is returned in bytes; if any bytes remain
// past it, the damage is reported as a typed *TornTailError. It never
// panics on hostile input and never allocates beyond a record's
// declared (validated) size — FuzzWALReplay hammers exactly this
// entrypoint.
func decodeWAL(data []byte) ([]WALRecord, int64, *TornTailError) {
	var (
		recs []WALRecord
		off  int
		lsn  uint64
	)
	for off < len(data) {
		rec, next, err := decodeWALRecord(data, off)
		if err != nil {
			return recs, int64(off), &TornTailError{Offset: int64(off), Reason: err.Error()}
		}
		if rec.LSN <= lsn {
			return recs, int64(off), &TornTailError{Offset: int64(off),
				Reason: fmt.Sprintf("non-monotonic LSN %d after %d", rec.LSN, lsn)}
		}
		lsn = rec.LSN
		recs = append(recs, rec)
		off = next
	}
	return recs, int64(off), nil
}

// Recovered is the durable state a store found on open: a legacy
// checkpoint (nil unless an earlier build wrote one), the clean-prefix
// WAL records past it, and the torn-tail report when the log's end was
// discarded (the expected shape after an append-crash; nil after a
// clean shutdown).
type Recovered struct {
	Checkpoint *Checkpoint
	Records    []WALRecord
	TornTail   *TornTailError
}

// StoreOptions tunes a Store. It has no fields: the log is the state,
// so there is no compaction cadence to set.
type StoreOptions struct{}

// Store owns one data directory: the append-only wal.log, plus the
// read-only checkpoint.json an earlier build may have left. Appends are
// serialized, synced to disk before they return, and framed by
// appendWALRecord; the server calls AppendSubmit/AppendLimits after
// each successful admission event so a restarted daemon replays to the
// exact pre-crash state. A failed write or sync stops the store: every
// later append fails with that error until a restart reopens the
// directory, so the log never grows past a record whose fate is
// unknown. Safe for concurrent use.
type Store struct {
	mu     sync.Mutex
	dir    string
	f      walFile
	lsn    uint64 // last appended (or recovered) LSN
	closed bool
	// failed is the first write or sync error; it fails every later
	// append and checkpoint.
	failed error
}

// walFile is what a Store does with its open wal.log: an *os.File, or
// a test's stand-in that fails on demand.
type walFile interface {
	Write(p []byte) (int, error)
	Sync() error
	Truncate(size int64) error
	Seek(offset int64, whence int) (int64, error)
	Close() error
}

// walPath and checkpointPath name the store's files.
func walPath(dir string) string        { return filepath.Join(dir, "wal.log") }
func checkpointPath(dir string) string { return filepath.Join(dir, "checkpoint.json") }

// OpenStore opens (creating if needed) the data directory and recovers
// its durable state: a legacy checkpoint if one exists, then the WAL's
// clean prefix. A torn tail is truncated off the log file — the damage
// is in the returned report, not on disk — so the next append extends
// the clean prefix. The caller replays Recovered into a Server
// (UseStore) before serving.
func OpenStore(dir string, _ StoreOptions) (*Store, *Recovered, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("controlplane: opening store: %w", err)
	}
	rec := &Recovered{}

	// Checkpoint first: it was written atomically (temp + rename), so it
	// either exists whole or not at all. A checkpoint that does not
	// decode is real corruption, not a crash artifact — fail stop.
	if data, err := os.ReadFile(checkpointPath(dir)); err == nil {
		cp := &Checkpoint{}
		if err := json.Unmarshal(data, cp); err != nil {
			return nil, nil, fmt.Errorf("controlplane: corrupt checkpoint: %w", err)
		}
		if cp.FormatVersion != checkpointFormatVersion {
			return nil, nil, fmt.Errorf("controlplane: checkpoint format %d (this build speaks %d)",
				cp.FormatVersion, checkpointFormatVersion)
		}
		rec.Checkpoint = cp
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, nil, fmt.Errorf("controlplane: reading checkpoint: %w", err)
	}
	// Leftover temp file from a crash mid-checkpoint: the rename never
	// happened, so it is dead weight.
	os.Remove(checkpointPath(dir) + ".tmp")

	data, err := os.ReadFile(walPath(dir))
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, nil, fmt.Errorf("controlplane: reading WAL: %w", err)
	}
	recs, clean, torn := decodeWAL(data)
	rec.TornTail = torn

	lsn := uint64(0)
	if rec.Checkpoint != nil {
		lsn = rec.Checkpoint.LSN
	}
	// Records already compacted into the checkpoint (a crash between
	// the checkpoint rename and the log truncation) replay idempotently
	// by being skipped here.
	for _, r := range recs {
		if r.LSN > lsn {
			rec.Records = append(rec.Records, r)
			lsn = r.LSN
		}
	}

	f, err := os.OpenFile(walPath(dir), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("controlplane: opening WAL for append: %w", err)
	}
	// Drop the torn tail from disk so appends extend the clean prefix.
	if err := f.Truncate(clean); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("controlplane: truncating torn tail: %w", err)
	}
	if _, err := f.Seek(clean, 0); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("controlplane: seeking WAL end: %w", err)
	}
	return &Store{dir: dir, f: f, lsn: lsn}, rec, nil
}

// Dir returns the store's data directory.
func (st *Store) Dir() string { return st.dir }

// LSN returns the last appended (or recovered) log sequence number.
func (st *Store) LSN() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.lsn
}

// usable reports why the store takes no more writes, if it does not.
// The caller holds st.mu.
func (st *Store) usable() error {
	if st.closed {
		return errors.New("controlplane: store closed")
	}
	if st.failed != nil {
		return fmt.Errorf("controlplane: store stopped after a failed append: %w", st.failed)
	}
	return nil
}

// append encodes and durably appends one record: the write and the
// fsync both complete before the admission decision is answered. The
// first write or sync error stops the store. After a failed sync the
// record's bytes may or may not be on disk, and after a short write a
// partial record is: the restart's replay decides the record's fate
// exactly once, and until then nothing may follow it.
func (st *Store) append(kind RecordKind, payload []byte) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.usable(); err != nil {
		return err
	}
	st.lsn++
	buf := appendWALRecord(make([]byte, 0, walHeaderLen+len(payload)),
		WALRecord{LSN: st.lsn, Kind: kind, Payload: payload})
	if _, err := st.f.Write(buf); err != nil {
		st.failed = fmt.Errorf("controlplane: WAL append: %w", err)
		return st.failed
	}
	if err := st.f.Sync(); err != nil {
		st.failed = fmt.Errorf("controlplane: WAL sync: %w", err)
		return st.failed
	}
	return nil
}

// AppendSubmit durably logs one admission event, encoding its spec.
func (st *Store) AppendSubmit(rec SubmitRecord) error {
	spec, err := canonicalSpec(&rec.Spec)
	if err != nil {
		return fmt.Errorf("controlplane: encoding submit record: %w", err)
	}
	return st.appendSubmit(&rec, spec)
}

// appendSubmit durably logs one admission event around its spec's
// canonical bytes; rec.Spec is not read.
func (st *Store) appendSubmit(rec *SubmitRecord, spec []byte) error {
	return st.append(RecordSubmit, appendSubmitRecord(make([]byte, 0, len(spec)+256), rec, spec))
}

// AppendLimits durably logs one limits reconfiguration.
func (st *Store) AppendLimits(l Limits) error {
	payload, err := json.Marshal(&LimitsRecord{Limits: l})
	if err != nil {
		return fmt.Errorf("controlplane: encoding limits record: %w", err)
	}
	return st.append(RecordLimits, payload)
}

// ShouldCheckpoint reports false: the log is the state, and nothing
// appended ever calls for a checkpoint.
func (st *Store) ShouldCheckpoint() bool { return false }

// WriteCheckpoint compacts the log into a version-1 checkpoint the way
// earlier builds did on their cadence: marshal the given full state,
// write it to a temp file, fsync, rename, then truncate wal.log. A
// crash at any point leaves either the old checkpoint (plus the whole
// log) or the new one (plus a log whose stale prefix replay skips by
// LSN) — never a half-written state. The caller fills
// Seq/Limits/Snapshots; the store stamps the LSN boundary. The daemon
// never calls it; it writes the legacy data dirs OpenStore still
// loads.
func (st *Store) WriteCheckpoint(cp *Checkpoint) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.usable(); err != nil {
		return err
	}
	cp.FormatVersion = checkpointFormatVersion
	cp.LSN = st.lsn
	data, err := json.MarshalIndent(cp, "", "  ")
	if err != nil {
		return fmt.Errorf("controlplane: encoding checkpoint: %w", err)
	}
	tmp := checkpointPath(st.dir) + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("controlplane: writing checkpoint: %w", err)
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("controlplane: writing checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("controlplane: syncing checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("controlplane: closing checkpoint: %w", err)
	}
	if err := os.Rename(tmp, checkpointPath(st.dir)); err != nil {
		return fmt.Errorf("controlplane: installing checkpoint: %w", err)
	}
	// The records up to cp.LSN are now compacted; drop them.
	if err := st.f.Truncate(0); err != nil {
		return fmt.Errorf("controlplane: truncating compacted WAL: %w", err)
	}
	if _, err := st.f.Seek(0, 0); err != nil {
		return fmt.Errorf("controlplane: seeking compacted WAL: %w", err)
	}
	if err := st.f.Sync(); err != nil {
		return fmt.Errorf("controlplane: syncing compacted WAL: %w", err)
	}
	return nil
}

// Close flushes and closes the store. Safe to call twice.
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return nil
	}
	st.closed = true
	if err := st.f.Sync(); err != nil {
		st.f.Close()
		return err
	}
	return st.f.Close()
}
