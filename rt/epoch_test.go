package rt

import (
	"testing"

	"defuse/internal/checksum"
)

func TestEpochAdvanceAndOpCounts(t *testing.T) {
	tr := NewTracker()
	if tr.Epoch() != 0 {
		t.Fatalf("fresh tracker Epoch = %d", tr.Epoch())
	}
	var c Counter
	for k := 0; k < 3; k++ {
		entry := tr.BeginEpoch()
		if !entry.Sealed() || entry.Index != k {
			t.Fatalf("epoch %d: entry = %+v", k, entry)
		}
		DefDyn(tr, &c, 0.0, 1.5)
		Use(tr, &c, 1.5)
		Final(tr, &c, 1.5)
		exit, err := tr.EndEpoch()
		if err != nil {
			t.Fatalf("epoch %d: %v", k, err)
		}
		if !exit.Sealed() || exit.Index != k {
			t.Fatalf("epoch %d: exit = %+v", k, exit)
		}
		if tr.Epoch() != k+1 {
			t.Fatalf("after epoch %d: Epoch = %d", k, tr.Epoch())
		}
	}
	defs, uses := tr.OpCounts()
	if defs != 3 || uses != 3 {
		t.Errorf("OpCounts = %d/%d, want 3/3", defs, uses)
	}
}

func TestEndEpochMismatchDoesNotAdvance(t *testing.T) {
	tr := NewTracker()
	var c Counter
	DefDyn(tr, &c, 0.0, 2.0)
	Use(tr, &c, CorruptBits(2.0, 13)) // the use sees a corrupted value
	Final(tr, &c, 2.0)
	s, err := tr.EndEpoch()
	if err == nil {
		t.Fatal("corrupted epoch verified clean")
	}
	if tr.Epoch() != 0 {
		t.Errorf("Epoch advanced past a mismatch: %d", tr.Epoch())
	}
	if !s.Sealed() || s.Index != 0 {
		t.Errorf("mismatch snapshot = %+v", s)
	}
}

func TestRollbackRestoresEntrySnapshot(t *testing.T) {
	tr := NewTracker()
	var c Counter
	DefDyn(tr, &c, 0.0, 3.0)
	Use(tr, &c, 3.0)
	Final(tr, &c, 3.0)
	if _, err := tr.EndEpoch(); err != nil {
		t.Fatal(err)
	}
	entry := tr.BeginEpoch()
	wantDef, wantUse, wantEDef, wantEUse := tr.Checksums()

	// A lopsided epoch: defs without matching uses.
	var d Counter
	DefDyn(tr, &d, 0.0, 9.0)
	Use(tr, &d, 7.0)
	if err := tr.Rollback(entry); err != nil {
		t.Fatal(err)
	}
	def, use, edef, euse := tr.Checksums()
	if def != wantDef || use != wantUse || edef != wantEDef || euse != wantEUse {
		t.Errorf("Rollback left %x/%x/%x/%x, want %x/%x/%x/%x",
			def, use, edef, euse, wantDef, wantUse, wantEDef, wantEUse)
	}
	if tr.Epoch() != entry.Index {
		t.Errorf("Epoch = %d, want %d", tr.Epoch(), entry.Index)
	}
	if err := tr.Verify(); err != nil {
		t.Errorf("rolled-back tracker should verify clean: %v", err)
	}
	defs, uses := tr.OpCounts()
	if defs != entry.Defs || uses != entry.Uses {
		t.Errorf("OpCounts = %d/%d, want %d/%d", defs, uses, entry.Defs, entry.Uses)
	}
}

func TestRollbackRejectsUnsealedState(t *testing.T) {
	tr := NewTracker()
	Def(tr, 1.0, 1)
	if err := tr.Rollback(EpochState{}); err == nil {
		t.Fatal("zero EpochState accepted: would silently wipe the tracker")
	}
	if def, _, _, _ := tr.Checksums(); def == 0 {
		t.Error("rejected rollback still clobbered the checksums")
	}
}

func TestResetClearsEpochState(t *testing.T) {
	// Reset must clear the checksums, the epoch index and the op counters,
	// and leave a tracker that verifies clean and keeps counting.
	tr := NewTracker()
	var c Counter
	DefDyn(tr, &c, 0.0, 4.0)
	Use(tr, &c, 4.0)
	Final(tr, &c, 4.0)
	if _, err := tr.EndEpoch(); err != nil {
		t.Fatal(err)
	}

	tr.Reset()
	if def, use, edef, euse := tr.Checksums(); def|use|edef|euse != 0 {
		t.Errorf("Reset left checksums %x/%x/%x/%x", def, use, edef, euse)
	}
	if tr.Epoch() != 0 {
		t.Errorf("Reset left Epoch = %d", tr.Epoch())
	}
	if defs, uses := tr.OpCounts(); defs != 0 || uses != 0 {
		t.Errorf("Reset left OpCounts = %d/%d", defs, uses)
	}
	if err := tr.Verify(); err != nil {
		t.Errorf("reset tracker must verify clean: %v", err)
	}
	Def(tr, 5.0, 1)
	if defs, _ := tr.OpCounts(); defs != 1 {
		t.Errorf("OpCounts after Reset and one Def = %d defs, want 1", defs)
	}
}

// FuzzDefUsePair drives the dynamic def/use protocol with fuzz-chosen values
// and use counts: a balanced sequence must always verify, and corrupting a
// single use with a nonzero bit mask must always be detected. A read of the
// tracker halfway through the uses flushes the pending folds between a def
// and its uses; the verdicts must not depend on where the flushes land.
func FuzzDefUsePair(f *testing.F) {
	f.Add(uint64(0x3ff8000000000000), uint8(1), uint64(0))
	f.Add(uint64(0xdeadbeefcafebabe), uint8(7), uint64(1<<51))
	f.Add(uint64(0), uint8(0), uint64(1))
	f.Add(^uint64(0), uint8(3), uint64(0x8000000000000000))
	f.Fuzz(func(t *testing.T, bits uint64, nUses uint8, mask uint64) {
		for _, kind := range []checksum.Kind{checksum.ModAdd, checksum.XOR} {
			tr := NewTrackerWith(kind)
			var c Counter
			DefDyn(tr, &c, uint64(0), bits)
			for i := uint8(0); i < nUses; i++ {
				if i == nUses/2 {
					midRead(t, tr)
				}
				Use(tr, &c, bits)
			}
			// Redefine (exercising the overwrite adjustment), one more use, finalize.
			next := bits ^ 0xa5a5a5a5a5a5a5a5
			DefDyn(tr, &c, bits, next)
			Use(tr, &c, next)
			Final(tr, &c, next)
			if err := tr.Verify(); err != nil {
				t.Fatalf("kind=%v balanced sequence failed: %v", kind, err)
			}

			if mask == 0 {
				continue
			}
			tr.Reset()
			c = Counter{}
			DefDyn(tr, &c, uint64(0), bits)
			midRead(t, tr)
			Use(tr, &c, bits^mask) // single corrupted use
			Final(tr, &c, bits)
			if err := tr.Verify(); err == nil {
				t.Fatalf("kind=%v corrupted use (mask %#x) escaped", kind, mask)
			}
		}
	})
}

// midRead reads the tracker mid-sequence, which flushes its pending folds:
// the checksums and a scrub, which must be clean.
func midRead(t *testing.T, tr *Tracker) {
	t.Helper()
	tr.Checksums()
	if err := tr.ScrubDetector(); err != nil {
		t.Fatalf("mid-sequence scrub: %v", err)
	}
}
