package checksum

import (
	"fmt"
	"math/bits"
)

// Acc selects one of the four checksum accumulators of a Pair.
type Acc int

// The four accumulators of the paper's two-pair scheme.
const (
	AccDef Acc = iota
	AccUse
	AccEDef
	AccEUse
)

var accNames = [...]string{"def", "use", "e_def", "e_use"}

// String returns the paper's name for the accumulator.
func (a Acc) String() string {
	if a >= 0 && int(a) < len(accNames) {
		return accNames[a]
	}
	return fmt.Sprintf("checksum.Acc(%d)", int(a))
}

// Per-accumulator shadow rotations. Distinct odd amounts keep the four
// encodings mutually decorrelated: a fault replayed at the same bit position
// of two shadow words decodes to different value deltas.
var shadowRot = [4]int{11, 23, 41, 53}

// encShadow produces the redundant second copy of an accumulator: the value
// left-rotated and inverted. Rotation decorrelates bit positions between the
// copies and inversion decorrelates bit values, so no single fault (nor a
// whole-word clear) can strike both encodings identically — the structural
// independence argument of DME applied to the detector's own state.
func encShadow(v uint64, a Acc) uint64 { return ^bits.RotateLeft64(v, shadowRot[a]) }

// decShadow recovers the accumulator value from its shadow encoding.
func decShadow(s uint64, a Acc) uint64 { return bits.RotateLeft64(^s, -shadowRot[a]) }

// Pair holds the four global checksums of the paper's scheme: the primary
// def/use pair and the auxiliary e_def/e_use pair introduced in Section 4.1
// to catch persistent corruptions that the primary pair alone would miss.
//
// The paper assumes these accumulators are register-resident and therefore
// outside the fault model (Section 5). In this reproduction they are ordinary
// heap words, so each accumulator is stored twice: raw, and as a
// rotated-and-inverted shadow copy updated independently through the same
// operation sequence. Scrub cross-checks the copies; a divergence means a
// fault struck the detector itself rather than the protected data.
//
// Use NewPair: the shadow copies of a zero Pair are uninitialized, so Scrub
// on a zero Pair reports a spurious divergence (Verify is unaffected).
type Pair struct {
	kind Kind

	// Def accumulates every defined value, scaled by its use count.
	Def uint64
	// Use accumulates every consumed value once per use.
	Use uint64
	// EDef accumulates each dynamically-counted defined value once at its
	// definition site.
	EDef uint64
	// EUse accumulates, for each dynamically-counted definition, the value
	// observed after its last use (at overwrite or in the epilogue).
	EUse uint64

	// shadow holds the complement-encoded second copy of each accumulator,
	// indexed by Acc. Each update decodes, applies the same fold, and
	// re-encodes, so a corrupted primary is never laundered into its shadow.
	shadow [4]uint64
}

// NewPair returns a Pair using operator k. k must be commutative.
func NewPair(k Kind) *Pair {
	p := &Pair{kind: k}
	if !k.Commutative() {
		panic(fmt.Sprintf("checksum: operator %v cannot be used for def/use checksums", k))
	}
	p.resealShadows()
	return p
}

// resealShadows re-derives every shadow from its primary. Only for
// initialization and trusted restores — never on the update path, where it
// would copy a corrupted primary into the shadow and mask the fault.
func (p *Pair) resealShadows() {
	p.shadow[AccDef] = encShadow(p.Def, AccDef)
	p.shadow[AccUse] = encShadow(p.Use, AccUse)
	p.shadow[AccEDef] = encShadow(p.EDef, AccEDef)
	p.shadow[AccEUse] = encShadow(p.EUse, AccEUse)
}

// Kind returns the operator of the pair.
func (p *Pair) Kind() Kind { return p.kind }

// ScaleFold folds v into the selected accumulator n times, updating both
// copies. The interpreter's add_to_chksm (machine.State.Fold) calls it once
// per fold, as the reference the delta discipline is compared against;
// Flush calls it once per non-zero delta for the generated kernels and
// rt.Tracker. The shadow is decoded from its own previous value, folded and
// re-encoded, so a corrupted primary is never laundered into it.
func (p *Pair) ScaleFold(a Acc, v uint64, n int64) {
	acc := p.primary(a)
	s := decShadow(p.shadow[a], a)
	if p.kind == ModAdd {
		d := v * uint64(n) // two's-complement wraparound handles n < 0
		*acc += d
		s += d
	} else {
		*acc = ScaleCombine(p.kind, *acc, v, n)
		s = ScaleCombine(p.kind, s, v, n)
	}
	p.shadow[a] = encShadow(s, a)
}

// Merge folds every accumulator of other into p under the pair's commutative
// operator. Because the def/use checksums are order-independent folds, a
// sequence of values partitioned across several Pairs and merged yields the
// same accumulators as folding the whole sequence into one Pair. Every
// backend folds into a single Pair, so Merge's only non-test caller is the
// perfbench checksum.merge_ns probe, which times it.
//
// The shadow copies are merged by decode-combine-re-encode, never by
// re-sealing from the merged primaries: each side's decoded shadow value is
// combined and the result re-encoded. A primary/shadow divergence present in
// either operand (a detector fault) therefore survives into the merged pair
// and is still caught by Scrub, while two internally consistent operands
// merge into an internally consistent result.
//
// Both pairs must use the same operator; merging across operators is a
// programmer error and panics. other is not modified.
func (p *Pair) Merge(other *Pair) {
	if p.kind != other.kind {
		panic(fmt.Sprintf("checksum: Merge of %v pair into %v pair", other.kind, p.kind))
	}
	p.Def = Combine(p.kind, p.Def, other.Def)
	p.Use = Combine(p.kind, p.Use, other.Use)
	p.EDef = Combine(p.kind, p.EDef, other.EDef)
	p.EUse = Combine(p.kind, p.EUse, other.EUse)
	for a := AccDef; a <= AccEUse; a++ {
		p.shadow[a] = encShadow(Combine(p.kind, decShadow(p.shadow[a], a), decShadow(other.shadow[a], a)), a)
	}
}

// Shadows exposes the raw (encoded) shadow copies, indexed by Acc. Tests use
// it to assert that two fold orders produce byte-identical detector state,
// shadows included.
func (p *Pair) Shadows() [4]uint64 { return p.shadow }

// SetAccumulators overwrites all four accumulators with trusted values and
// reseals the shadows. It is the restore path for verified checkpoints; the
// caller vouches for the integrity of the values (e.g. by a checkpoint
// digest), since resealing makes the shadows agree by construction.
func (p *Pair) SetAccumulators(def, use, edef, euse uint64) {
	p.Def, p.Use, p.EDef, p.EUse = def, use, edef, euse
	p.resealShadows()
}

// SetState overwrites the accumulators and their shadow copies with exact
// values, without resealing. It is the restore path for durable checkpoints
// that captured both copies: a primary/shadow divergence present at seal time
// (detector-fault evidence) is reinstated rather than erased, so a verdict
// formed before a crash survives the restart. The caller vouches for the
// bytes (e.g. by the checkpoint's integrity digest).
func (p *Pair) SetState(def, use, edef, euse uint64, shadow [4]uint64) {
	p.Def, p.Use, p.EDef, p.EUse = def, use, edef, euse
	p.shadow = shadow
}

// CorruptPrimary flips one bit of the primary copy of the selected
// accumulator, leaving its shadow untouched — exactly the footprint of a
// transient fault striking the detector's own state. Fault-injection
// campaigns use it to target the detector; it has no other purpose.
func (p *Pair) CorruptPrimary(a Acc, bit uint) { *p.primary(a) ^= 1 << (bit & 63) }

// ScrubError reports a divergence between an accumulator and its
// complement-encoded shadow copy: a fault struck the detector state itself.
type ScrubError struct {
	Acc     Acc
	Primary uint64
	// Shadow is the decoded shadow value that disagrees with Primary.
	Shadow uint64
}

func (e *ScrubError) Error() string {
	return fmt.Sprintf("checksum: %s accumulator diverged from its shadow copy: %#x != %#x (detector fault)",
		e.Acc, e.Primary, e.Shadow)
}

// Scrub cross-checks every accumulator against its shadow copy. A nil return
// means the detector state is internally consistent; a *ScrubError names the
// first diverged accumulator. Scrub does not compare def against use — that
// is Verify's job; Scrub only asks whether the comparison can be trusted.
func (p *Pair) Scrub() error {
	for a := AccDef; a <= AccEUse; a++ {
		primary := *p.primary(a)
		if dec := decShadow(p.shadow[a], a); dec != primary {
			return &ScrubError{Acc: a, Primary: primary, Shadow: dec}
		}
	}
	return nil
}

// primary returns the primary copy of the selected accumulator.
func (p *Pair) primary(a Acc) *uint64 {
	switch a {
	case AccDef:
		return &p.Def
	case AccUse:
		return &p.Use
	case AccEDef:
		return &p.EDef
	case AccEUse:
		return &p.EUse
	}
	panic("checksum: unknown accumulator")
}

// Reset zeroes all four checksums and reseals the shadows.
func (p *Pair) Reset() {
	p.Def, p.Use, p.EDef, p.EUse = 0, 0, 0, 0
	p.resealShadows()
}

// MismatchError reports a checksum verification failure.
type MismatchError struct {
	Which              string // "def/use" or "e_def/e_use"
	Expected, Observed uint64
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("checksum: %s mismatch: %#x != %#x (memory error detected)",
		e.Which, e.Expected, e.Observed)
}

// Verify compares the def/use and e_def/e_use checksums. A nil return means
// no memory error was detected; a *MismatchError reports which pair differs.
func (p *Pair) Verify() error {
	if p.Def != p.Use {
		return &MismatchError{Which: "def/use", Expected: p.Def, Observed: p.Use}
	}
	if p.EDef != p.EUse {
		return &MismatchError{Which: "e_def/e_use", Expected: p.EDef, Observed: p.EUse}
	}
	return nil
}
