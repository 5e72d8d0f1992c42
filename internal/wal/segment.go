package wal

// Segmented logs bound the disk a long-uptime journal consumes. The active
// file at `path` receives appends; when the next frame would push it past
// SegmentBytes it is sealed — synced, closed, renamed to `path.sNNNNNN` —
// and a fresh active file opens with the sequence numbering continuing
// uninterrupted. When more than MaxSegments sealed files accumulate, the
// oldest folds into a summary file at `path.sum`: the caller's Summarize
// callback receives the previous summary payloads plus the folded records
// and returns the payloads that replace them (running stats, a retained
// newest record — whatever the application's resume needs).
//
// Compaction is crash-safe by sequence-number dedup. The new summary is
// written atomically (temp + fsync + rename) with frame sequence numbers
// ending at the highest folded sequence — the summary's high-water mark —
// and only then is the folded segment removed. A crash between those two
// steps leaves both on disk; recovery drops every sealed or active record at
// or below the high-water mark, so nothing is ever double-counted, and the
// stale segment (now fully shadowed) is deleted on the next open.

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
)

// segmentPattern matches sealed segment files but not the `.sum` summary.
const segmentPattern = ".s[0-9][0-9][0-9][0-9][0-9][0-9]"

// sealedName renders the sealed-segment path for a monotonic index.
func sealedName(path string, idx int) string {
	return fmt.Sprintf("%s.s%06d", path, idx)
}

// sumName is the summary file's path.
func sumName(path string) string { return path + ".sum" }

// SegmentOptions configures a segmented append handle.
type SegmentOptions struct {
	// SegmentBytes seals the active file before an append would push it past
	// this size (the frame that triggers the seal starts the next segment).
	// Zero means 1 MiB.
	SegmentBytes int64
	// MaxSegments is how many sealed segments are retained before the oldest
	// folds into the summary. Zero disables compaction (segments accumulate).
	MaxSegments int
	// FS is the file layer writes go through; nil means the real filesystem.
	FS FS
	// Summarize folds records out of the log: it receives the previous
	// summary's payloads and the records of the segment being folded (oldest
	// first), and returns the payloads of the replacement summary. Nil means
	// "retain only the newest folded payload".
	Summarize func(prev [][]byte, folded []Record) ([][]byte, error)
	// OnRotate, when non-nil, observes each seal (sealed path, bytes,
	// records).
	OnRotate func(path string, bytes int64, records int)
	// OnCompact, when non-nil, observes each fold (folded path, folded
	// record count, total disk bytes after).
	OnCompact func(path string, folded int, diskBytes int64)
}

func (o SegmentOptions) segmentBytes() int64 {
	if o.SegmentBytes <= 0 {
		return 1 << 20
	}
	return o.SegmentBytes
}

func (o SegmentOptions) fs() FS {
	if o.FS == nil {
		return OSFS
	}
	return o.FS
}

// SegmentInfo describes one sealed segment found at recovery.
type SegmentInfo struct {
	// Path is the sealed file.
	Path string
	// Index is the monotonic segment number parsed from the name.
	Index int
	// Records is how many live (non-shadowed) records it contributes.
	Records int
	// Bytes is the file size.
	Bytes int64
	// Shadowed reports that every record sits at or below the summary's
	// high-water mark — a crash interrupted compaction after the summary
	// landed but before this file was removed. It is deleted on open.
	Shadowed bool
}

// SegmentedScan is the outcome of recovering a segmented log.
type SegmentedScan struct {
	// Path is the active file (segment and summary names derive from it).
	Path string
	// Summary holds the summary file's records in file order; the last one's
	// sequence number is the dedup high-water mark. Empty when no summary
	// exists.
	Summary []Record
	// Records are the live records — sealed segments oldest-first, then the
	// active file — with everything at or below the high-water mark dropped.
	Records []Record
	// Sealed describes the sealed segments found, oldest first.
	Sealed []SegmentInfo
	// TornTail / TornBytes report a truncated final frame on the ACTIVE file
	// (sealed segments and the summary must scan clean).
	TornTail  bool
	TornBytes int
	// ActiveCorrupt reports a complete CRC-failed frame on the active file: a
	// bit struck the in-progress segment at rest. The frame and everything
	// after it are dropped — detected, truncated on open, and flagged here so
	// the owner can declare the loss rather than accept it silently.
	ActiveCorrupt bool
	// Dropped counts records discarded by high-water dedup — evidence of a
	// crash between summary write and segment removal, not data loss.
	Dropped int
	// NextSeq is the sequence number the next append must use.
	NextSeq uint32
	// DiskBytes is the total on-disk footprint (summary + sealed + active).
	DiskBytes int64

	// active is the raw scan of the active file, nil when it does not exist
	// (a crash between seal-rename and fresh-create).
	active *Scan
}

// Newest returns the most recent live record, or nil when none survived.
func (s *SegmentedScan) Newest() *Record {
	if len(s.Records) == 0 {
		return nil
	}
	return &s.Records[len(s.Records)-1]
}

// highWater returns the summary's dedup threshold as int64 (-1 when no
// summary exists, so sequence 0 compares live).
func (s *SegmentedScan) highWater() int64 {
	if len(s.Summary) == 0 {
		return -1
	}
	return int64(s.Summary[len(s.Summary)-1].Seq)
}

// RecoverSegmented scans a segmented log: summary, sealed segments in index
// order, then the active file. Damage classification is position-aware — a
// torn tail is tolerated only on the active file (the process died
// mid-append); any damage to the summary or a sealed segment is at-rest
// corruption and returns ErrCheckpointCorrupt, because those files were
// complete and fsynced when written.
//
// ErrNoCheckpoint reports an absent or empty log (start fresh).
func RecoverSegmented(path string) (*SegmentedScan, error) {
	s := &SegmentedScan{Path: path}

	// Summary first: it defines the dedup high-water mark.
	sum, err := Recover(sumName(path))
	switch {
	case err == nil:
		if sum.TornTail || sum.Corrupt > 0 {
			return s, fmt.Errorf("wal: summary %s damaged (torn=%v corrupt=%d): %w",
				sumName(path), sum.TornTail, sum.Corrupt, ErrCheckpointCorrupt)
		}
		s.Summary = sum.Records
		s.DiskBytes += sum.ValidSize
	case errors.Is(err, ErrNoCheckpoint):
		if sum.TornTail {
			return s, fmt.Errorf("wal: summary %s truncated: %w", sumName(path), ErrCheckpointCorrupt)
		}
	default:
		return s, fmt.Errorf("wal: summary %s: %w", sumName(path), err)
	}
	high := s.highWater()
	nextSeq := int64(high) // highest sequence seen so far; NextSeq = this + 1

	// Sealed segments, oldest index first.
	names, err := filepath.Glob(path + segmentPattern)
	if err != nil {
		return s, err
	}
	sort.Strings(names)
	for _, name := range names {
		var idx int
		if _, err := fmt.Sscanf(name[len(path):], ".s%06d", &idx); err != nil {
			continue
		}
		seg, err := Recover(name)
		if err != nil && !errors.Is(err, ErrNoCheckpoint) {
			return s, fmt.Errorf("wal: sealed segment %s: %w", name, err)
		}
		if seg.TornTail || seg.Corrupt > 0 {
			return s, fmt.Errorf("wal: sealed segment %s damaged (torn=%v corrupt=%d): %w",
				name, seg.TornTail, seg.Corrupt, ErrCheckpointCorrupt)
		}
		info := SegmentInfo{Path: name, Index: idx, Bytes: seg.ValidSize}
		for _, r := range seg.Records {
			if int64(r.Seq) <= high {
				s.Dropped++
				continue
			}
			s.Records = append(s.Records, r)
			info.Records++
			if int64(r.Seq) > nextSeq {
				nextSeq = int64(r.Seq)
			}
		}
		info.Shadowed = len(seg.Records) > 0 && info.Records == 0
		s.Sealed = append(s.Sealed, info)
		s.DiskBytes += seg.ValidSize
	}

	// The active file: torn tails are tolerated, and a complete corrupt
	// frame is flagged (ActiveCorrupt) with its valid prefix kept — the
	// segment was mid-write, so its tail has weaker guarantees than sealed
	// state, but the damage is always surfaced, never silently resumed past.
	act, err := Recover(path)
	switch {
	case err == nil, errors.Is(err, ErrNoCheckpoint):
		s.active = act
		s.TornTail, s.TornBytes = act.TornTail, act.TornBytes
		s.ActiveCorrupt = act.Corrupt > 0
		s.DiskBytes += act.ValidSize
		for _, r := range act.Records {
			if int64(r.Seq) <= high {
				s.Dropped++
				continue
			}
			s.Records = append(s.Records, r)
			if int64(r.Seq) > nextSeq {
				nextSeq = int64(r.Seq)
			}
		}
	case errors.Is(err, ErrCheckpointCorrupt):
		// The header itself is unreadable: no frame boundary in the active
		// file can be trusted. Surface records from sealed state only; the
		// caller decides whether to refuse or start a fresh active file.
		s.active = act
		s.ActiveCorrupt = true
	default:
		return s, err
	}

	s.NextSeq = uint32(nextSeq + 1)
	if len(s.Records) == 0 && len(s.Summary) == 0 {
		return s, ErrNoCheckpoint
	}
	return s, nil
}

// SegmentedLog is an append handle over a segmented log. Like Log it is not
// safe for concurrent use; the journal serializes appends above it.
type SegmentedLog struct {
	path   string
	opts   SegmentOptions
	active *Log
	sealed []SegmentInfo
	// sum mirrors the on-disk summary payloads; sumHigh is its high-water
	// sequence (-1 when no summary exists).
	sum     [][]byte
	sumSize int64
	sumHigh int64
	nextIdx int
}

// CreateSegmented starts an empty segmented log at path, removing any
// previous segments and summary.
func CreateSegmented(path string, opts SegmentOptions) (*SegmentedLog, error) {
	fs := opts.fs()
	if names, err := filepath.Glob(path + segmentPattern); err == nil {
		for _, name := range names {
			_ = fs.Remove(name)
		}
	}
	_ = fs.Remove(sumName(path))
	active, err := Create(path, Options{FS: opts.FS})
	if err != nil {
		return nil, err
	}
	return &SegmentedLog{path: path, opts: opts, active: active, sumHigh: -1}, nil
}

// OpenSegmented continues a recovered segmented log: the active file is
// truncated to its valid prefix (or created fresh when the previous process
// died between seal and re-create), fully-shadowed segments left by an
// interrupted compaction are deleted, and the compaction loop is run so an
// open log always respects MaxSegments.
func OpenSegmented(s *SegmentedScan, opts SegmentOptions) (*SegmentedLog, error) {
	fs := opts.fs()
	l := &SegmentedLog{path: s.Path, opts: opts, sumHigh: s.highWater()}
	for _, r := range s.Summary {
		l.sum = append(l.sum, r.Payload)
		l.sumSize += int64(frameHeaderSize + len(r.Payload) + frameTrailerSize)
	}
	if l.sumSize > 0 {
		l.sumSize += int64(len(magic))
	}
	for _, seg := range s.Sealed {
		if seg.Shadowed {
			if err := fs.Remove(seg.Path); err != nil {
				return nil, fmt.Errorf("wal: removing shadowed segment %s: %w", seg.Path, err)
			}
			continue
		}
		l.sealed = append(l.sealed, seg)
		if seg.Index >= l.nextIdx {
			l.nextIdx = seg.Index + 1
		}
	}

	if s.active == nil || s.active.ValidSize < int64(len(magic)) {
		// The active file is missing (crash between seal-rename and fresh
		// create) or too short to hold a header: start it fresh. Create
		// truncates, so a torn partial header is discarded here.
		active, err := Create(s.Path, Options{FS: opts.FS})
		if err != nil {
			return nil, err
		}
		l.active = active
	} else {
		active, err := Open(s.active, Options{FS: opts.FS})
		if err != nil {
			return nil, err
		}
		l.active = active
	}
	l.active.nextSeq = s.NextSeq
	if err := l.compact(); err != nil {
		l.active.Close()
		return nil, err
	}
	return l, nil
}

// Append seals one record into the active segment, rotating first when the
// frame would push it past SegmentBytes. Errors from the underlying log are
// already rolled back (see Log.Append) and leave counts untouched.
func (l *SegmentedLog) Append(payload []byte) error {
	frameLen := int64(frameHeaderSize + len(payload) + frameTrailerSize)
	if l.active.records > 0 && l.active.size+frameLen > l.opts.segmentBytes() {
		if err := l.seal(); err != nil {
			return err
		}
	}
	return l.active.Append(payload)
}

// seal closes the active segment, renames it into the sealed series, opens a
// fresh active file continuing the sequence, and compacts if needed.
func (l *SegmentedLog) seal() error {
	nextSeq := l.active.nextSeq
	size, records := l.active.size, l.active.records
	if err := l.active.Close(); err != nil {
		return fmt.Errorf("wal: seal close: %w", err)
	}
	name := sealedName(l.path, l.nextIdx)
	if err := l.opts.fs().Rename(l.path, name); err != nil {
		return fmt.Errorf("wal: seal rename: %w", err)
	}
	l.sealed = append(l.sealed, SegmentInfo{Path: name, Index: l.nextIdx, Records: records, Bytes: size})
	l.nextIdx++
	active, err := Create(l.path, Options{FS: l.opts.FS})
	if err != nil {
		return fmt.Errorf("wal: seal reopen: %w", err)
	}
	active.nextSeq = nextSeq
	l.active = active
	if l.opts.OnRotate != nil {
		l.opts.OnRotate(name, size, records)
	}
	return l.compact()
}

// compact folds oldest sealed segments into the summary until at most
// MaxSegments remain. Write-then-remove ordering plus sequence-number dedup
// makes each fold idempotent across crashes.
func (l *SegmentedLog) compact() error {
	if l.opts.MaxSegments <= 0 {
		return nil
	}
	for len(l.sealed) > l.opts.MaxSegments {
		oldest := l.sealed[0]
		seg, err := Recover(oldest.Path)
		if err != nil && !errors.Is(err, ErrNoCheckpoint) {
			return fmt.Errorf("wal: compact read %s: %w", oldest.Path, err)
		}
		var folded []Record
		maxSeq := l.sumHigh
		for _, r := range seg.Records {
			if int64(r.Seq) <= l.sumHigh {
				continue
			}
			folded = append(folded, r)
			if int64(r.Seq) > maxSeq {
				maxSeq = int64(r.Seq)
			}
		}
		if len(folded) > 0 {
			next, err := l.summarize(folded)
			if err != nil {
				return fmt.Errorf("wal: compact summarize: %w", err)
			}
			// Assign the replacement summary frames sequence numbers ending
			// at the fold's high-water mark, and write it atomically BEFORE
			// removing the folded segment.
			buf := append([]byte(nil), magic[:]...)
			base := maxSeq - int64(len(next)) + 1
			for i, p := range next {
				buf = append(buf, frame(uint32(base+int64(i)), p)...)
			}
			if err := WriteFileAtomic(sumName(l.path), buf, 0o644); err != nil {
				return fmt.Errorf("wal: compact summary write: %w", err)
			}
			l.sum, l.sumHigh, l.sumSize = next, maxSeq, int64(len(buf))
		}
		if err := l.opts.fs().Remove(oldest.Path); err != nil {
			return fmt.Errorf("wal: compact remove %s: %w", oldest.Path, err)
		}
		l.sealed = l.sealed[1:]
		if l.opts.OnCompact != nil {
			l.opts.OnCompact(oldest.Path, len(folded), l.DiskBytes())
		}
	}
	return nil
}

// summarize applies the configured fold, defaulting to "retain only the
// newest folded payload".
func (l *SegmentedLog) summarize(folded []Record) ([][]byte, error) {
	if l.opts.Summarize != nil {
		next, err := l.opts.Summarize(l.sum, folded)
		if err != nil {
			return nil, err
		}
		if len(next) == 0 {
			return nil, errors.New("wal: Summarize returned no payloads")
		}
		return next, nil
	}
	return [][]byte{folded[len(folded)-1].Payload}, nil
}

// DiskBytes is the log's total on-disk footprint.
func (l *SegmentedLog) DiskBytes() int64 {
	n := l.sumSize + l.active.size
	for _, seg := range l.sealed {
		n += seg.Bytes
	}
	return n
}

// Segments counts on-disk files: sealed segments plus the active file.
func (l *SegmentedLog) Segments() int { return len(l.sealed) + 1 }

// Close syncs and closes the active segment.
func (l *SegmentedLog) Close() error { return l.active.Close() }
