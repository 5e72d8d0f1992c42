package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"defuse/internal/splitmix"
	"defuse/internal/wal"
)

// The journal is the service's durability layer: one CRC64-framed,
// fsynced-on-append WAL record per completed request, kept in a segmented
// log so week-long uptimes stay disk-bounded. The active segment receives
// appends; size-thresholded seals rotate it into the sealed series, and when
// sealed segments accumulate past the cap the oldest folds into a summary
// that preserves the running tallies (count, injected/detected/recovered,
// ID ledger) plus the newest folded record verbatim. A SIGKILLed server
// restarts, scans summary + segments (tolerating a torn tail on the active
// file only), re-verifies the newest valid record by recomputing its
// reference digest from first principles, and resumes appending across the
// segment boundary. VerifyJournal re-executes that check over every live
// record and the summary's conservation arithmetic — the chaos soak's gate
// for "zero silent corruption".

// journalRecordSize is the fixed request-record encoding: id(8) kind(1)
// flags(1) words(4) epochs(4) seed(8) digest(8) refDigest(8).
const journalRecordSize = 42

// journalSummarySize is the fixed compaction-summary encoding: ten uint64
// fields. Payload length is the dispatch key — request records and summaries
// share the log format and are told apart by size alone.
const journalSummarySize = 80

// Flag bits in a journal record.
const (
	flagInjected = 1 << iota
	flagDetected
	flagRecovered
	flagTainted
)

// errDuplicateID rejects a request ID the journal has already sealed (or
// reserved): accepting it would make the journal ambiguous under replay.
var errDuplicateID = errors.New("server: duplicate request ID")

// JournalRecord is one completed request as persisted in the WAL.
type JournalRecord struct {
	ID        uint64
	Kind      string // KindVerify or KindKernel
	Injected  bool
	Detected  bool
	Recovered bool
	Tainted   bool
	Words     int
	Epochs    int
	Seed      uint64
	Digest    uint64
	RefDigest uint64
}

func (r JournalRecord) encode() []byte {
	b := make([]byte, journalRecordSize)
	binary.LittleEndian.PutUint64(b[0:], r.ID)
	if r.Kind == KindKernel {
		b[8] = 1
	}
	var flags byte
	if r.Injected {
		flags |= flagInjected
	}
	if r.Detected {
		flags |= flagDetected
	}
	if r.Recovered {
		flags |= flagRecovered
	}
	if r.Tainted {
		flags |= flagTainted
	}
	b[9] = flags
	binary.LittleEndian.PutUint32(b[10:], uint32(r.Words))
	binary.LittleEndian.PutUint32(b[14:], uint32(r.Epochs))
	binary.LittleEndian.PutUint64(b[18:], r.Seed)
	binary.LittleEndian.PutUint64(b[26:], r.Digest)
	binary.LittleEndian.PutUint64(b[34:], r.RefDigest)
	return b
}

func decodeJournalRecord(b []byte) (JournalRecord, error) {
	if len(b) != journalRecordSize {
		return JournalRecord{}, fmt.Errorf("server: journal record is %d bytes, want %d", len(b), journalRecordSize)
	}
	r := JournalRecord{
		ID:        binary.LittleEndian.Uint64(b[0:]),
		Kind:      KindVerify,
		Words:     int(binary.LittleEndian.Uint32(b[10:])),
		Epochs:    int(binary.LittleEndian.Uint32(b[14:])),
		Seed:      binary.LittleEndian.Uint64(b[18:]),
		Digest:    binary.LittleEndian.Uint64(b[26:]),
		RefDigest: binary.LittleEndian.Uint64(b[34:]),
	}
	if b[8] == 1 {
		r.Kind = KindKernel
	}
	flags := b[9]
	r.Injected = flags&flagInjected != 0
	r.Detected = flags&flagDetected != 0
	r.Recovered = flags&flagRecovered != 0
	r.Tainted = flags&flagTainted != 0
	return r, nil
}

// check re-verifies one record from first principles. For verify jobs the
// reference digest is recomputable from (words, epochs, seed, id); a record
// whose stored reference disagrees with the recomputation was corrupted at
// rest, and a non-tainted record whose result digest disagrees with the
// reference is a silent corruption the detector missed. Kernel references
// are not recomputable here (they come from the server's warmup), so only
// internal consistency is checked.
func (r JournalRecord) check() error {
	if r.Kind == KindVerify {
		ref := ReferenceDigest(r.Words, r.Epochs, r.Seed, r.ID)
		if r.RefDigest != ref {
			return fmt.Errorf("server: journal record %d: stored reference %x, recomputed %x", r.ID, r.RefDigest, ref)
		}
	}
	if !r.Tainted && r.Digest != r.RefDigest {
		return fmt.Errorf("server: journal record %d: silent corruption: digest %x, reference %x", r.ID, r.Digest, r.RefDigest)
	}
	return nil
}

// journalSummary is the running tally compaction folds old records into.
// XorIDs and the ID range give an auditor conservation arithmetic over the
// records that no longer exist individually: XOR of all folded IDs, plus a
// chained digest binding their contents in fold order.
type journalSummary struct {
	Count     uint64
	Injected  uint64
	Detected  uint64
	Recovered uint64
	Tainted   uint64
	Kernel    uint64
	MinID     uint64
	MaxID     uint64
	XorIDs    uint64
	Chain     uint64
}

func (s journalSummary) encode() []byte {
	b := make([]byte, journalSummarySize)
	for i, v := range []uint64{
		s.Count, s.Injected, s.Detected, s.Recovered, s.Tainted,
		s.Kernel, s.MinID, s.MaxID, s.XorIDs, s.Chain,
	} {
		binary.LittleEndian.PutUint64(b[i*8:], v)
	}
	return b
}

func decodeJournalSummary(b []byte) (journalSummary, error) {
	if len(b) != journalSummarySize {
		return journalSummary{}, fmt.Errorf("server: journal summary is %d bytes, want %d", len(b), journalSummarySize)
	}
	u := func(i int) uint64 { return binary.LittleEndian.Uint64(b[i*8:]) }
	return journalSummary{
		Count: u(0), Injected: u(1), Detected: u(2), Recovered: u(3), Tainted: u(4),
		Kernel: u(5), MinID: u(6), MaxID: u(7), XorIDs: u(8), Chain: u(9),
	}, nil
}

// sane rejects impossible tallies — a bit flip in the summary itself.
func (s journalSummary) sane() error {
	for name, v := range map[string]uint64{
		"injected": s.Injected, "detected": s.Detected, "recovered": s.Recovered,
		"tainted": s.Tainted, "kernel": s.Kernel,
	} {
		if v > s.Count {
			return fmt.Errorf("server: journal summary: %s=%d exceeds count=%d", name, v, s.Count)
		}
	}
	if s.Count > 0 && s.MinID > s.MaxID {
		return fmt.Errorf("server: journal summary: minID %d > maxID %d", s.MinID, s.MaxID)
	}
	return nil
}

// fold absorbs one record into the tally.
func (s *journalSummary) fold(r JournalRecord) {
	if s.Count == 0 || r.ID < s.MinID {
		s.MinID = r.ID
	}
	if s.Count == 0 || r.ID > s.MaxID {
		s.MaxID = r.ID
	}
	s.Count++
	if r.Injected {
		s.Injected++
	}
	if r.Detected {
		s.Detected++
	}
	if r.Recovered {
		s.Recovered++
	}
	if r.Tainted {
		s.Tainted++
	}
	if r.Kind == KindKernel {
		s.Kernel++
	}
	s.XorIDs ^= r.ID
	s.Chain = splitmix.Mix(s.Chain ^ r.ID ^ r.Digest ^ r.RefDigest)
}

// journalConfig sizes the segmented log under the journal.
type journalConfig struct {
	// SegmentBytes seals the active segment before it would exceed this
	// size. Zero means 1 MiB (a single segment for typical CI bursts, so
	// crash tests that compare WAL bytes across a resume stay single-file).
	SegmentBytes int64
	// MaxSegments caps sealed segments before compaction. Zero disables
	// compaction.
	MaxSegments int
	// FS is the file layer (fault injection point); nil means the real
	// filesystem.
	FS wal.FS
	// OnRotate / OnCompact observe seals and folds for telemetry.
	OnRotate  func(path string, bytes int64, records int)
	OnCompact func(path string, folded int, diskBytes int64)
}

// journal serializes appends from concurrent request workers onto one
// segmented WAL and owns the compaction fold.
type journal struct {
	mu   sync.Mutex
	slog *wal.SegmentedLog
	// ids holds every request ID this journal is known to contain —
	// rebuilt from live records at open, extended on append (even a failed
	// one: the bytes may be volatile but could also have survived, so the
	// ID is reserved conservatively). Compacted IDs from before this
	// process are covered by the summary's ledger, not this map.
	ids map[uint64]struct{}
	// live counts individually recoverable records (segments + the summary's
	// retained records); sum mirrors the on-disk compaction tally.
	live int
	sum  journalSummary
}

// ResumeInfo reports what the startup scan of the journal found.
type ResumeInfo struct {
	// Records is the number of live (individually recoverable) records.
	Records int
	// Compacted is the number of records folded into the summary tally.
	Compacted int
	// Segments counts on-disk files: sealed segments plus the active one.
	Segments int
	// TornTail reports a mid-append kill whose partial frame was discarded.
	TornTail bool
	// Corrupt reports a CRC-failed frame on the active segment; its valid
	// prefix was kept and the loss is declared here, never silently.
	Corrupt bool
	// Dropped counts records discarded by compaction-crash dedup.
	Dropped int
	// Reverified reports that the newest valid record passed its
	// from-first-principles re-verification.
	Reverified bool
	// LastID is the newest valid record's request ID (0 when none).
	LastID uint64
}

// openJournal scans path, re-verifies the newest valid record, and returns
// an appendable journal positioned after the valid prefix — across however
// many segments the previous life sealed. A missing or empty log starts
// fresh; damage to sealed state (a flipped bit in a sealed segment or the
// summary) is refused outright, and a newest record that fails
// re-verification is an error — the operator must not resume over silent
// corruption.
func openJournal(path string, cfg journalConfig) (*journal, ResumeInfo, error) {
	info := ResumeInfo{}
	j := &journal{ids: make(map[uint64]struct{})}
	opts := wal.SegmentOptions{
		SegmentBytes: cfg.SegmentBytes,
		MaxSegments:  cfg.MaxSegments,
		FS:           cfg.FS,
		Summarize:    j.summarize,
		OnRotate:     cfg.OnRotate,
		OnCompact:    cfg.OnCompact,
	}
	scan, err := wal.RecoverSegmented(path)
	switch {
	case err == nil:
		info.TornTail = scan.TornTail
		info.Corrupt = scan.ActiveCorrupt
		info.Dropped = scan.Dropped
		// The summary, when present, carries the compaction tally plus
		// retained records that are still individually live.
		var newest *JournalRecord
		for _, raw := range scan.Summary {
			switch len(raw.Payload) {
			case journalSummarySize:
				sum, derr := decodeJournalSummary(raw.Payload)
				if derr != nil {
					return nil, info, derr
				}
				if serr := sum.sane(); serr != nil {
					return nil, info, serr
				}
				j.sum = sum
			case journalRecordSize:
				rec, derr := decodeJournalRecord(raw.Payload)
				if derr != nil {
					return nil, info, derr
				}
				if cerr := rec.check(); cerr != nil {
					return nil, info, cerr
				}
				if _, dup := j.ids[rec.ID]; dup {
					return nil, info, fmt.Errorf("%w: journal retains request %d twice", errDuplicateID, rec.ID)
				}
				j.ids[rec.ID] = struct{}{}
				j.live++
				r := rec
				newest = &r
			default:
				return nil, info, fmt.Errorf("server: journal summary holds a %d-byte payload", len(raw.Payload))
			}
		}
		for _, raw := range scan.Records {
			rec, derr := decodeJournalRecord(raw.Payload)
			if derr != nil {
				return nil, info, derr
			}
			if _, dup := j.ids[rec.ID]; dup {
				return nil, info, fmt.Errorf("%w: journal records request %d twice", errDuplicateID, rec.ID)
			}
			j.ids[rec.ID] = struct{}{}
			j.live++
			r := rec
			newest = &r
		}
		if newest != nil {
			if cerr := newest.check(); cerr != nil {
				return nil, info, cerr
			}
			info.Reverified = true
			info.LastID = newest.ID
		}
		info.Records = j.live
		info.Compacted = int(j.sum.Count)
		slog, oerr := wal.OpenSegmented(scan, opts)
		if oerr != nil {
			return nil, info, oerr
		}
		j.slog = slog
		info.Segments = slog.Segments()
		return j, info, nil
	case errors.Is(err, wal.ErrNoCheckpoint):
		info.TornTail = scan.TornTail
		info.Corrupt = scan.ActiveCorrupt
		slog, cerr := wal.CreateSegmented(path, opts)
		if cerr != nil {
			return nil, info, cerr
		}
		j.slog = slog
		info.Segments = 1
		return j, info, nil
	default:
		return nil, info, err
	}
}

// summarize is the compaction fold: previously retained records and all but
// the newest folded record are absorbed into the tally — each re-verified
// from first principles on its way in, so corruption can never hide inside
// the summary — and the newest folded record is retained verbatim. Called
// with the journal mutex held (compaction runs inside append).
func (j *journal) summarize(prev [][]byte, folded []wal.Record) ([][]byte, error) {
	sum := journalSummary{}
	var absorb []JournalRecord
	for _, p := range prev {
		switch len(p) {
		case journalSummarySize:
			s, err := decodeJournalSummary(p)
			if err != nil {
				return nil, err
			}
			sum = s
		case journalRecordSize:
			rec, err := decodeJournalRecord(p)
			if err != nil {
				return nil, err
			}
			absorb = append(absorb, rec)
		default:
			return nil, fmt.Errorf("server: journal summary holds a %d-byte payload", len(p))
		}
	}
	var newest JournalRecord
	haveNewest := false
	for i, raw := range folded {
		rec, err := decodeJournalRecord(raw.Payload)
		if err != nil {
			return nil, err
		}
		if cerr := rec.check(); cerr != nil {
			return nil, fmt.Errorf("server: journal compaction refused: %w", cerr)
		}
		if i == len(folded)-1 {
			newest, haveNewest = rec, true
		} else {
			absorb = append(absorb, rec)
		}
	}
	for _, rec := range absorb {
		sum.fold(rec)
	}
	out := [][]byte{sum.encode()}
	if haveNewest {
		out = append(out, newest.encode())
	}
	// Folded-away records stop being individually live; the retained newest
	// stays. The previously retained records were counted live and are now
	// absorbed.
	j.live -= len(absorb)
	j.sum = sum
	return out, nil
}

// append seals one completed request into the WAL (fsynced before return).
// Duplicate IDs are refused before touching the disk; an ID whose append
// fails stays reserved — the bytes were rolled back, but reservation must be
// conservative so a retry under a reused ID cannot make the journal
// ambiguous.
func (j *journal) append(r JournalRecord) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, dup := j.ids[r.ID]; dup {
		return fmt.Errorf("%w: %d", errDuplicateID, r.ID)
	}
	j.ids[r.ID] = struct{}{}
	if err := j.slog.Append(r.encode()); err != nil {
		return err
	}
	j.live++
	return nil
}

// knownID reports whether the journal already holds (or has reserved) id.
func (j *journal) knownID(id uint64) bool {
	if j == nil {
		return false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	_, ok := j.ids[id]
	return ok
}

// seal closes the WAL cleanly (the drain path's final act).
func (j *journal) seal() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.slog.Close()
}

// records reports the number of live records.
func (j *journal) records() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.live
}

// compacted reports the number of records folded into the summary.
func (j *journal) compacted() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return int(j.sum.Count)
}

// segments reports the on-disk file count (sealed + active).
func (j *journal) segments() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.slog.Segments()
}

// diskBytes reports the journal's total on-disk footprint.
func (j *journal) diskBytes() int64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.slog.DiskBytes()
}

// JournalStats summarizes a full journal verification.
type JournalStats struct {
	// Total is every request the journal accounts for: individually live
	// records plus records folded into the compaction summary.
	Total int
	// Live is the number of individually recoverable records.
	Live int
	// Compacted is the number of records folded into the summary.
	Compacted int
	// Injected / Detected / Recovered tally flags across live + compacted.
	Injected  int
	Detected  int
	Recovered int
	// Tainted counts degraded requests (reported as such — not silent).
	Tainted int
	// Kernel counts kernel-kind requests across live + compacted.
	Kernel int
	// Segments counts on-disk files (sealed + active); DiskBytes is their
	// total size.
	Segments  int
	DiskBytes int64
	// XorIDs is the XOR of every accounted request ID (live and compacted) —
	// the auditor's conservation check against the IDs it saw acknowledged.
	XorIDs uint64
	// TornTail reports a discarded partial final frame on the active file.
	TornTail bool
	// Corrupt reports a CRC-failed frame on the active file whose valid
	// prefix was kept — declared damage, never silent.
	Corrupt bool
	// Dropped counts records discarded by compaction-crash dedup.
	Dropped int
}

// VerifyJournal re-verifies every live record in a journal from first
// principles and fails on the first silent corruption: a record whose result
// digest deviates from its (recomputed, for verify jobs) reference without
// being flagged tainted, or a duplicated request ID — including duplicates
// whose copies sit in different segments. Compacted records are checked
// through the summary's conservation arithmetic. The crash campaign and the
// chaos soak run this against the WAL a killed server left behind and again
// after the restarted server resumed over it.
func VerifyJournal(path string) (JournalStats, error) {
	stats := JournalStats{}
	scan, err := wal.RecoverSegmented(path)
	if errors.Is(err, wal.ErrNoCheckpoint) {
		return stats, nil
	}
	if err != nil {
		return stats, err
	}
	stats.TornTail = scan.TornTail
	stats.Corrupt = scan.ActiveCorrupt
	stats.Segments = len(scan.Sealed) + 1
	stats.DiskBytes = scan.DiskBytes
	stats.Dropped = scan.Dropped

	var sum journalSummary
	seen := map[uint64]bool{}
	verifyLive := func(payload []byte) error {
		rec, derr := decodeJournalRecord(payload)
		if derr != nil {
			return derr
		}
		if cerr := rec.check(); cerr != nil {
			return cerr
		}
		if seen[rec.ID] {
			return fmt.Errorf("server: journal records request %d twice", rec.ID)
		}
		seen[rec.ID] = true
		stats.Live++
		stats.XorIDs ^= rec.ID
		if rec.Injected {
			stats.Injected++
		}
		if rec.Detected {
			stats.Detected++
		}
		if rec.Recovered {
			stats.Recovered++
		}
		if rec.Tainted {
			stats.Tainted++
		}
		if rec.Kind == KindKernel {
			stats.Kernel++
		}
		return nil
	}
	for _, raw := range scan.Summary {
		switch len(raw.Payload) {
		case journalSummarySize:
			s, derr := decodeJournalSummary(raw.Payload)
			if derr != nil {
				return stats, derr
			}
			if serr := s.sane(); serr != nil {
				return stats, serr
			}
			sum = s
		case journalRecordSize:
			if err := verifyLive(raw.Payload); err != nil {
				return stats, err
			}
		default:
			return stats, fmt.Errorf("server: journal summary holds a %d-byte payload", len(raw.Payload))
		}
	}
	for _, raw := range scan.Records {
		if err := verifyLive(raw.Payload); err != nil {
			return stats, err
		}
	}
	stats.Compacted = int(sum.Count)
	stats.Total = stats.Live + stats.Compacted
	stats.Injected += int(sum.Injected)
	stats.Detected += int(sum.Detected)
	stats.Recovered += int(sum.Recovered)
	stats.Tainted += int(sum.Tainted)
	stats.Kernel += int(sum.Kernel)
	stats.XorIDs ^= sum.XorIDs
	return stats, nil
}
