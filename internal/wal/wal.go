// Package wal is a durable checkpoint log: an append-only file of
// length-prefixed, CRC64-framed records with fsync-on-seal semantics.
//
// Every layer above it (rt.EpochState, memsim.Snapshot) already covers its
// own bytes with a splitmix64 integrity digest; the WAL adds what those
// digests cannot provide — durability across process death and a framing
// discipline that makes partial writes detectable. The recovery scanner
// distinguishes the two failure shapes a crash-plus-fault model produces:
//
//   - a torn tail (the process died mid-append, leaving a truncated final
//     frame) is expected and tolerated: the scanner falls back to the
//     previous sealed record;
//   - a bit-flipped frame (a complete frame whose CRC no longer matches) is
//     corruption of recovery state itself and is classified as
//     ErrCheckpointCorrupt — it is never returned as data, and nothing after
//     it is trusted for framing.
//
// A Log grows by one frame per sealed record and never compacts itself. A
// long-lived journal bounds its disk with SegmentedLog (segment.go) instead.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"os"
	"path/filepath"

	"defuse/telemetry"
)

// magic identifies a defuse WAL file (8 bytes, version folded in).
var magic = [8]byte{'D', 'F', 'W', 'A', 'L', '0', '0', '1'}

// frameHeaderSize is the per-record header: uint32 payload length + uint32
// sequence number. The trailer is a uint64 CRC64 over header and payload.
const (
	frameHeaderSize  = 8
	frameTrailerSize = 8
	// maxFrameBytes rejects absurd lengths early: a bit flip in a length
	// prefix must not make the scanner attempt a multi-gigabyte read.
	maxFrameBytes = 1 << 30
)

// crcTable is the ECMA polynomial table shared by writer and scanner.
var crcTable = crc64.MakeTable(crc64.ECMA)

// ErrCheckpointCorrupt reports that a complete frame failed its CRC: a fault
// (disk bit flip, overwritten sector) struck the parked checkpoint log. The
// scanner never returns bytes from such a frame; when no older sealed record
// survives, recovery must restart from initial state.
var ErrCheckpointCorrupt = errors.New("wal: checkpoint frame corrupt")

// ErrNoCheckpoint reports that the log holds no recoverable record: the file
// is missing, empty, or contains only a torn first frame (the process died
// during its very first seal). It means "start from scratch", not failure.
var ErrNoCheckpoint = errors.New("wal: no sealed checkpoint record")

// Record is one sealed checkpoint payload recovered from the log.
type Record struct {
	// Seq is the record's sequence number as written by Append.
	Seq uint32
	// Payload is the application bytes exactly as sealed.
	Payload []byte
}

// Scan is the outcome of recovering a log file. Records are ordered oldest
// to newest; Newest() is the one a resume normally wants, and the rest exist
// so a caller whose payload-level digest check rejects the newest can fall
// back to a strictly older sealed state.
type Scan struct {
	// Path is the scanned file.
	Path string
	// Records are the frames whose CRC verified, oldest first.
	Records []Record
	// TornTail reports a truncated final frame: the process died mid-append.
	TornTail bool
	// TornBytes counts the trailing bytes discarded with the torn tail.
	TornBytes int
	// Corrupt counts complete frames whose CRC failed. Scanning stops at the
	// first one — after a corrupt frame the length chain cannot be trusted —
	// so this is 0 or 1, plus the unscanned remainder is dropped.
	Corrupt int
	// ValidSize is the byte offset of the end of the last valid frame; an
	// appender must truncate the file here before writing.
	ValidSize int64
	// NextSeq is the sequence number the next Append should use.
	NextSeq uint32
}

// Newest returns the most recent valid record, or nil when none survived.
func (s *Scan) Newest() *Record {
	if len(s.Records) == 0 {
		return nil
	}
	return &s.Records[len(s.Records)-1]
}

// Recover scans a checkpoint log. It returns a Scan holding every frame
// whose CRC verified, plus a classification of whatever ended the scan:
//
//   - nil error with at least one record: resume from Newest() (a torn tail
//     or a corrupt newest frame may still be flagged in the Scan — the
//     returned records are strictly older sealed state);
//   - ErrNoCheckpoint: nothing recoverable, nothing suspicious beyond at
//     most a torn first frame — start fresh;
//   - ErrCheckpointCorrupt: a bit-flipped frame with no older sealed record
//     to fall back to — start fresh, but the caller should report it.
func Recover(path string) (*Scan, error) {
	s := &Scan{Path: path}
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return s, ErrNoCheckpoint
	}
	if err != nil {
		return s, err
	}
	if len(raw) < len(magic) {
		// Died before the header hit the disk: an empty or embryonic log.
		s.TornTail = len(raw) > 0
		s.TornBytes = len(raw)
		return s, ErrNoCheckpoint
	}
	if [8]byte(raw[:8]) != magic {
		// The header itself is damaged; no frame boundary can be trusted.
		s.Corrupt = 1
		return s, fmt.Errorf("wal: %s: bad magic: %w", path, ErrCheckpointCorrupt)
	}
	off := int64(len(magic))
	s.ValidSize = off
	for off < int64(len(raw)) {
		rest := int64(len(raw)) - off
		if rest < frameHeaderSize {
			s.TornTail, s.TornBytes = true, int(rest)
			break
		}
		length := int64(binary.LittleEndian.Uint32(raw[off:]))
		seq := binary.LittleEndian.Uint32(raw[off+4:])
		if length > maxFrameBytes {
			// A length this large is a flipped prefix, not a real frame.
			s.Corrupt++
			break
		}
		total := frameHeaderSize + length + frameTrailerSize
		if rest < total {
			s.TornTail, s.TornBytes = true, int(rest)
			break
		}
		body := raw[off : off+frameHeaderSize+length]
		want := binary.LittleEndian.Uint64(raw[off+frameHeaderSize+length:])
		if crc64.Checksum(body, crcTable) != want {
			s.Corrupt++
			break
		}
		s.Records = append(s.Records, Record{
			Seq:     seq,
			Payload: append([]byte(nil), body[frameHeaderSize:]...),
		})
		off += total
		s.ValidSize = off
		s.NextSeq = seq + 1
	}
	if len(s.Records) == 0 {
		if s.Corrupt > 0 {
			return s, fmt.Errorf("wal: %s: no sealed record survives: %w", path, ErrCheckpointCorrupt)
		}
		return s, ErrNoCheckpoint
	}
	return s, nil
}

// Options configures an append handle.
type Options struct {
	// FS is the file layer writes go through; nil means the real filesystem.
	// Tests and the chaos soak substitute a FaultFS to fail seeded writes
	// and fsyncs.
	FS FS
}

func (o Options) fs() FS {
	if o.FS == nil {
		return OSFS
	}
	return o.FS
}

// Log is an append handle over a checkpoint log file. It is not safe for
// concurrent use; the durable supervisor appends from one goroutine.
type Log struct {
	f       File
	size    int64
	records int
	nextSeq uint32
	// poisoned is set when a failed append could not be rolled back.
	poisoned bool

	// tracer/span, when armed via SetTracer, record one "wal.append" span
	// per sealed record. A nil tracer costs one nil check.
	tracer *telemetry.Tracer
	span   telemetry.SpanContext
}

// SetTracer arms span recording on the append handle; spans attach to
// parent (the supervisor's run span).
func (l *Log) SetTracer(t *telemetry.Tracer, parent telemetry.SpanContext) {
	l.tracer = t
	l.span = parent
}

// Create truncates (or creates) the log at path and returns an empty append
// handle. Any previous contents are discarded — use Open to continue a log.
func Create(path string, opts Options) (*Log, error) {
	f, err := opts.fs().OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(magic[:]); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return &Log{f: f, size: int64(len(magic))}, nil
}

// Open continues the log described by a prior Recover scan: the file is
// truncated to the end of its last valid frame (discarding any torn tail or
// poisoned remainder) and positioned for appending. The scan must be of the
// same path and still describe the file on disk.
func Open(s *Scan, opts Options) (*Log, error) {
	f, err := opts.fs().OpenFile(s.Path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(s.ValidSize); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(s.ValidSize, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return &Log{f: f, size: s.ValidSize, records: len(s.Records), nextSeq: s.NextSeq}, nil
}

// frame renders one record's on-disk bytes: header, payload, CRC trailer.
func frame(seq uint32, payload []byte) []byte {
	b := make([]byte, frameHeaderSize+len(payload)+frameTrailerSize)
	binary.LittleEndian.PutUint32(b, uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[4:], seq)
	copy(b[frameHeaderSize:], payload)
	sum := crc64.Checksum(b[:frameHeaderSize+len(payload)], crcTable)
	binary.LittleEndian.PutUint64(b[frameHeaderSize+len(payload):], sum)
	return b
}

// ErrLogPoisoned reports that a previous failed append could not be rolled
// back (the truncate-to-valid repair itself failed), so the file's tail state
// is unknown and further appends are refused. Recovery over the file is still
// safe — the scanner treats whatever landed as a torn tail.
var ErrLogPoisoned = errors.New("wal: log poisoned by unrepaired append failure")

// Append seals one checkpoint record: the frame is written in a single
// write call and fsynced before Append returns, so a record the caller has
// been told about survives any subsequent crash.
//
// A failed write or fsync is rolled back before Append returns: the file is
// truncated to its pre-append size, so the half-written frame cannot later be
// misread as a sealed record. If the rollback itself fails the handle is
// poisoned and every later Append returns ErrLogPoisoned.
func (l *Log) Append(payload []byte) error {
	if l.poisoned {
		return ErrLogPoisoned
	}
	sp := l.tracer.Start(l.span, "wal.append",
		telemetry.Int("bytes", len(payload)), telemetry.Int("seq", int(l.nextSeq)))
	b := frame(l.nextSeq, payload)
	if _, err := l.f.Write(b); err != nil {
		err = fmt.Errorf("wal: append: %w", l.repair(err))
		sp.EndErr(err)
		return err
	}
	if err := l.f.Sync(); err != nil {
		err = fmt.Errorf("wal: append sync: %w", l.repair(err))
		sp.EndErr(err)
		return err
	}
	l.size += int64(len(b))
	l.records++
	l.nextSeq++
	sp.EndErr(nil)
	return nil
}

// repair rolls a failed append back to the last sealed state: truncate to the
// pre-append size (l.size is only advanced after a successful fsync) and
// re-seek so the next frame lands on a clean boundary. On success the handle
// stays usable; on failure it is poisoned.
func (l *Log) repair(cause error) error {
	if err := l.f.Truncate(l.size); err != nil {
		l.poisoned = true
		return fmt.Errorf("%w (rollback truncate failed: %v)", cause, err)
	}
	if _, err := l.f.Seek(l.size, io.SeekStart); err != nil {
		l.poisoned = true
		return fmt.Errorf("%w (rollback seek failed: %v)", cause, err)
	}
	return cause
}

// Size returns the current log size in bytes.
func (l *Log) Size() int64 { return l.size }

// Records returns the number of live records.
func (l *Log) Records() int { return l.records }

// Rewrite atomically replaces the log at path with exactly the given records,
// preserving their sequence numbers. Recovery uses it to drop refused records
// (digest-failed payloads, foreign fingerprints) that sit above the record
// actually resumed, so the poisoned bytes cannot resurface on a later scan.
func Rewrite(path string, records []Record) error {
	buf := append([]byte(nil), magic[:]...)
	for _, r := range records {
		buf = append(buf, frame(r.Seq, r.Payload)...)
	}
	return WriteFileAtomic(path, buf, 0o644)
}

// Close syncs and closes the append handle.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	serr := l.f.Sync()
	cerr := l.f.Close()
	l.f = nil
	if serr != nil {
		return serr
	}
	return cerr
}

// WriteFileAtomic writes data to path with crash-safe atomicity: the bytes
// go to a temp file in the same directory, are fsynced, and the temp file is
// renamed over path, followed by a directory fsync so the rename itself is
// durable. A process killed at any point leaves either the old file or the
// complete new one; a truncated temp file can never be observed at path.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a just-performed rename survives power loss.
// Filesystems that refuse directory fsync (some network mounts) are
// tolerated: the rename is still atomic, just not yet durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}
