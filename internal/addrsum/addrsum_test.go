package addrsum

import (
	"errors"
	"math/rand"
	"testing"

	"defuse/internal/checksum"
	"defuse/rt"
)

// foldClean folds n clean read-modify-writes of random indices below words.
func foldClean(tr *rt.Tracker, rng *rand.Rand, n, words int) {
	for range n {
		i := rng.Intn(words)
		Fold(tr, i, i, i)
	}
}

func TestCleanStreamVerifies(t *testing.T) {
	tr := rt.NewTracker()
	foldClean(tr, rand.New(rand.NewSource(11)), 500, 64)
	if err := tr.Verify(); err != nil {
		t.Fatalf("clean access stream failed verify: %v", err)
	}
	if err := tr.ScrubDetector(); err != nil {
		t.Fatalf("clean access stream failed scrub: %v", err)
	}
	if defs, uses := tr.OpCounts(); defs != 500 || uses != 500 {
		t.Fatalf("op counts %d defs, %d uses; want 500 each", defs, uses)
	}
}

func TestRedirectDetected(t *testing.T) {
	cases := []struct {
		name           string
		i, load, store int
	}{
		{"load", 3, 9, 3},
		{"store", 5, 5, 2},
	}
	for _, tc := range cases {
		tr := rt.NewTracker()
		// Surround the fault with clean traffic: one redirect in an epoch of
		// otherwise well-behaved accesses must still surface.
		for i := range 32 {
			Fold(tr, i, i, i)
		}
		Fold(tr, tc.i, tc.load, tc.store)
		var mm *checksum.MismatchError
		if err := tr.Verify(); !errors.As(err, &mm) {
			t.Fatalf("%s redirect: verify returned %v, want *checksum.MismatchError", tc.name, err)
		}
	}
}

// TestSwapDetected pins the reason Key binds (intent, effective) pairs
// instead of folding a multiset of touched addresses: two accesses that
// trade locations leave the multiset of effective indices unchanged, so an
// unbound fold would balance. The pair-bound fold must not.
func TestSwapDetected(t *testing.T) {
	tr := rt.NewTracker()
	Fold(tr, 1, 2, 1)
	Fold(tr, 2, 1, 2)
	if err := tr.Verify(); err == nil {
		t.Fatal("swapped loads balanced the address fold — keys are not pair-bound")
	}
	if Key(1, 2) == Key(2, 1) {
		t.Fatal("Key is symmetric in its arguments")
	}
}

// TestScrubCatchesAccumulatorCorruption: a fault in an address accumulator
// surfaces from the tracker's ScrubDetector as a detector fault.
func TestScrubCatchesAccumulatorCorruption(t *testing.T) {
	for _, a := range []checksum.Acc{checksum.AccDef, checksum.AccUse} {
		tr := rt.NewTracker()
		Fold(tr, 4, 4, 4)
		tr.CorruptAccumulator(a, 17)
		var df *rt.DetectorFaultError
		if err := tr.ScrubDetector(); !errors.As(err, &df) {
			t.Fatalf("%v: scrub returned %v, want *rt.DetectorFaultError", a, err)
		}
	}
}

func TestEpochSealRollback(t *testing.T) {
	tr := rt.NewTracker()
	Fold(tr, 0, 0, 0)
	start := tr.BeginEpoch()

	// A redirected epoch: EndEpoch must refuse and leave state for rollback.
	Fold(tr, 1, 7, 1)
	if _, err := tr.EndEpoch(); err == nil {
		t.Fatal("EndEpoch verified a redirected epoch")
	}
	if err := tr.Rollback(start); err != nil {
		t.Fatalf("rollback failed: %v", err)
	}
	// The re-executed epoch runs clean and advances.
	Fold(tr, 1, 1, 1)
	end, err := tr.EndEpoch()
	if err != nil {
		t.Fatalf("re-executed epoch failed verify: %v", err)
	}
	if end.Index != start.Index || tr.Epoch() != start.Index+1 {
		t.Fatalf("closed epoch %d, now at %d; want %d, %d", end.Index, tr.Epoch(), start.Index, start.Index+1)
	}

	// A tampered seal must be refused by the digest-checked rollback.
	bad := end
	bad.Use ^= 1
	if err := tr.Rollback(bad); !errors.Is(err, rt.ErrCheckpointCorrupt) {
		t.Fatalf("rollback of tampered state returned %v, want rt.ErrCheckpointCorrupt", err)
	}
}

// TestEpochStateEncodeRoundtrip: the address ledger's sealed epoch state
// survives its binary encoding, and bit flips or truncation are refused.
func TestEpochStateEncodeRoundtrip(t *testing.T) {
	tr := rt.NewTracker()
	for i := range 10 {
		Fold(tr, i, i, i)
	}
	st := tr.BeginEpoch()
	buf, err := st.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != rt.EncodedEpochStateSize {
		t.Fatalf("encoded %d bytes, want %d", len(buf), rt.EncodedEpochStateSize)
	}
	got, err := rt.DecodeEpochState(buf)
	if err != nil {
		t.Fatalf("decode failed: %v", err)
	}
	if got != st {
		t.Fatal("decoded state differs from encoded state")
	}
	for byteIdx := 0; byteIdx < len(buf); byteIdx += 7 {
		mut := append([]byte(nil), buf...)
		mut[byteIdx] ^= 0x10
		if _, err := rt.DecodeEpochState(mut); !errors.Is(err, rt.ErrCheckpointCorrupt) {
			t.Fatalf("bit flip at byte %d: decode returned %v, want rt.ErrCheckpointCorrupt", byteIdx, err)
		}
	}
	if _, err := rt.DecodeEpochState(buf[:len(buf)-1]); err == nil {
		t.Fatal("truncated encoding decoded successfully")
	}
}

// TestReset: a fault campaign reuses one address tracker across trials, so
// Reset must clear a redirected ledger.
func TestReset(t *testing.T) {
	tr := rt.NewTracker()
	Fold(tr, 3, 9, 3)
	tr.Reset()
	if err := tr.Verify(); err != nil {
		t.Fatalf("reset tracker failed verify: %v", err)
	}
	if err := tr.ScrubDetector(); err != nil {
		t.Fatalf("reset tracker failed scrub: %v", err)
	}
}

// FuzzAddrSum drives the fold with fuzzer-chosen access streams: the verdict
// must fail exactly when some access was redirected, the shadows must stay
// consistent, and the sealed epoch state must survive an encode/decode
// roundtrip.
func FuzzAddrSum(f *testing.F) {
	f.Add([]byte{0x01, 0x82, 0x13})
	f.Add([]byte{0xff, 0x00, 0x7f, 0x40, 0x21})
	f.Fuzz(func(t *testing.T, raw []byte) {
		const words = 32
		tr := rt.NewTracker()
		redirected := false
		// Each byte encodes one read-modify-write: low 5 bits pick the
		// intent index, bit 5 redirects its load and bit 6 its store
		// (effective = intent+1 mod words).
		for _, b := range raw {
			i := int(b & 0x1f)
			load, store := i, i
			if b&0x20 != 0 {
				load = (i + 1) % words
				redirected = true
			}
			if b&0x40 != 0 {
				store = (i + 1) % words
				redirected = true
			}
			Fold(tr, i, load, store)
		}
		if err := tr.ScrubDetector(); err != nil {
			t.Fatalf("clean detector failed scrub: %v", err)
		}
		if (tr.Verify() != nil) != redirected {
			t.Fatalf("verdict %v over %d accesses, redirected=%v", tr.Verify(), len(raw), redirected)
		}
		st := tr.BeginEpoch()
		enc, err := st.Encode()
		if err != nil {
			t.Fatal(err)
		}
		got, err := rt.DecodeEpochState(enc)
		if err != nil {
			t.Fatalf("encode/decode roundtrip failed: %v", err)
		}
		if got != st {
			t.Fatal("roundtripped state differs")
		}
	})
}
