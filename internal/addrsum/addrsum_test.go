package addrsum

import (
	"errors"
	"math/rand"
	"testing"
)

// access is one instrumented memory operation: a load or store with the
// index the program computed and the index the hardware actually touched.
type access struct {
	store             bool
	intent, effective int
}

func (a access) apply(t *Tracker) {
	if a.store {
		t.Store(a.intent, a.effective)
	} else {
		t.Load(a.intent, a.effective)
	}
}

// genClean builds a random clean access stream (effective == intent).
func genClean(rng *rand.Rand, n, words int) []access {
	ops := make([]access, n)
	for i := range ops {
		idx := rng.Intn(words)
		ops[i] = access{store: rng.Intn(2) == 0, intent: idx, effective: idx}
	}
	return ops
}

func TestCleanStreamVerifies(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := NewTracker()
	for _, op := range genClean(rng, 500, 64) {
		op.apply(tr)
	}
	if err := tr.Verify(); err != nil {
		t.Fatalf("clean access stream failed verify: %v", err)
	}
	if err := tr.Scrub(); err != nil {
		t.Fatalf("clean access stream failed scrub: %v", err)
	}
	loads, stores := tr.OpCounts()
	if loads+stores != 500 {
		t.Fatalf("op counts %d+%d, want 500 total", loads, stores)
	}
}

func TestRedirectDetected(t *testing.T) {
	cases := []struct {
		name string
		op   access
		want string
	}{
		{"load", access{intent: 3, effective: 9}, "load"},
		{"store", access{store: true, intent: 5, effective: 2}, "store"},
	}
	for _, tc := range cases {
		tr := NewTracker()
		// Surround the fault with clean traffic: one redirect in an epoch of
		// otherwise well-behaved accesses must still surface.
		for i := 0; i < 32; i++ {
			tr.Load(i, i)
			tr.Store(i, i)
		}
		tc.op.apply(tr)
		err := tr.Verify()
		var mm *MismatchError
		if !errors.As(err, &mm) {
			t.Fatalf("%s redirect: verify returned %v, want *MismatchError", tc.name, err)
		}
		if mm.Op != tc.want {
			t.Errorf("%s redirect blamed the %s stream", tc.name, mm.Op)
		}
	}
}

// TestSwapDetected pins the reason Key binds (intent, effective) pairs
// instead of folding a multiset of touched addresses: two accesses that
// trade locations leave the multiset of effective indices unchanged, so an
// unbound fold would balance. The pair-bound fold must not.
func TestSwapDetected(t *testing.T) {
	tr := NewTracker()
	tr.Load(1, 2)
	tr.Load(2, 1)
	if err := tr.Verify(); err == nil {
		t.Fatal("swapped loads balanced the address fold — keys are not pair-bound")
	}
	if Key(1, 2) == Key(2, 1) {
		t.Fatal("Key is symmetric in its arguments")
	}
}

func TestScrubCatchesAccumulatorCorruption(t *testing.T) {
	for s := Stream(0); s < numStreams; s++ {
		tr := NewTracker()
		tr.Load(4, 4)
		tr.Store(4, 4)
		tr.CorruptAccumulator(s, 17)
		err := tr.Scrub()
		var se *ScrubError
		if !errors.As(err, &se) {
			t.Fatalf("stream %v: scrub returned %v, want *ScrubError", s, err)
		}
		if se.Stream != s {
			t.Errorf("stream %v: scrub blamed %v", s, se.Stream)
		}
	}
}

func TestEpochSealRollback(t *testing.T) {
	tr := NewTracker()
	tr.Load(0, 0)
	tr.Store(0, 0)
	start := tr.BeginEpoch()
	if err := start.Verify(); err != nil {
		t.Fatalf("freshly sealed state failed verify: %v", err)
	}

	// A redirected epoch: EndEpoch must refuse and leave state for rollback.
	tr.Load(1, 7)
	if _, err := tr.EndEpoch(); err == nil {
		t.Fatal("EndEpoch verified a redirected epoch")
	}
	if err := tr.Rollback(start); err != nil {
		t.Fatalf("rollback failed: %v", err)
	}
	// The re-executed epoch runs clean and advances.
	tr.Load(1, 1)
	end, err := tr.EndEpoch()
	if err != nil {
		t.Fatalf("re-executed epoch failed verify: %v", err)
	}
	if end.Index != start.Index+1 {
		t.Fatalf("epoch index %d after EndEpoch from %d", end.Index, start.Index)
	}

	// A tampered seal must be refused by the digest-checked rollback and
	// accepted by the vouched-for path.
	bad := end
	bad.Acc[0] ^= 1
	if err := tr.Rollback(bad); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("rollback of tampered state returned %v, want ErrCheckpointCorrupt", err)
	}
	tr.RollbackUnchecked(end)
	if tr.Epoch() != end.Index {
		t.Fatalf("unchecked rollback landed at epoch %d, want %d", tr.Epoch(), end.Index)
	}
}

func TestEpochStateEncodeRoundtrip(t *testing.T) {
	tr := NewTracker()
	for i := 0; i < 10; i++ {
		tr.Load(i, i)
		tr.Store(i, i)
	}
	st := tr.BeginEpoch()
	buf := st.Encode()
	if len(buf) != EncodedEpochStateSize {
		t.Fatalf("encoded %d bytes, want %d", len(buf), EncodedEpochStateSize)
	}
	got, err := DecodeEpochState(buf)
	if err != nil {
		t.Fatalf("decode failed: %v", err)
	}
	if got.Acc != st.Acc || got.Shadow != st.Shadow || got.Index != st.Index ||
		got.Loads != st.Loads || got.Stores != st.Stores || got.Digest() != st.Digest() {
		t.Fatal("decoded state differs from encoded state")
	}
	// Every single-bit corruption of the encoding must be rejected.
	for byteIdx := 0; byteIdx < len(buf); byteIdx += 7 {
		mut := append([]byte(nil), buf...)
		mut[byteIdx] ^= 0x10
		if _, err := DecodeEpochState(mut); err == nil {
			t.Fatalf("bit flip at byte %d decoded successfully", byteIdx)
		}
	}
	if _, err := DecodeEpochState(buf[:len(buf)-1]); err == nil {
		t.Fatal("truncated encoding decoded successfully")
	}
}

func TestReset(t *testing.T) {
	tr := NewTracker()
	tr.Load(3, 9) // mismatched
	tr.Reset()
	if err := tr.Verify(); err != nil {
		t.Fatalf("reset tracker failed verify: %v", err)
	}
	if err := tr.Scrub(); err != nil {
		t.Fatalf("reset tracker failed scrub: %v", err)
	}
	if l, s := tr.OpCounts(); l != 0 || s != 0 {
		t.Fatalf("reset kept op counts %d/%d", l, s)
	}
}

// FuzzAddrSum drives the fold and encode paths with fuzzer-chosen access
// streams: the sequential verdict must fail exactly when some access was
// redirected, the shadows must stay consistent, and the sealed epoch state
// must survive an encode/decode roundtrip.
func FuzzAddrSum(f *testing.F) {
	f.Add([]byte{0x01, 0x82, 0x13})
	f.Add([]byte{0xff, 0x00, 0x7f, 0x40, 0x21})
	f.Fuzz(func(t *testing.T, raw []byte) {
		const words = 32
		seq := NewTracker()
		redirected := false
		// Each byte encodes one access: low 5 bits pick the intent index,
		// bit 5 the op, bit 6 a redirect (effective = intent+1 mod words).
		for _, b := range raw {
			op := access{store: b&0x20 != 0, intent: int(b & 0x1f), effective: int(b & 0x1f)}
			if b&0x40 != 0 {
				op.effective = (op.intent + 1) % words
				redirected = true
			}
			op.apply(seq)
		}
		if err := seq.Scrub(); err != nil {
			t.Fatalf("clean detector failed scrub: %v", err)
		}
		if (seq.Verify() != nil) != redirected {
			t.Fatalf("verdict %v over %d accesses, redirected=%v", seq.Verify(), len(raw), redirected)
		}
		st := seq.BeginEpoch()
		got, err := DecodeEpochState(st.Encode())
		if err != nil {
			t.Fatalf("encode/decode roundtrip failed: %v", err)
		}
		if got.Acc != st.Acc || got.Shadow != st.Shadow || got.Loads != st.Loads || got.Stores != st.Stores {
			t.Fatal("roundtripped state differs")
		}
	})
}
