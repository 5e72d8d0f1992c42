package rt

import "defuse/internal/addrsum"

// This file wires internal/addrsum's address-stream checksums into a
// Tracker. The address accumulators ride alongside the data checksums with
// the same lifecycle: reset with the tracker, scrub at the detector boundary
// (Tracker.ScrubDetector reports an addrsum shadow divergence as a
// *DetectorFaultError with Part "addrsum"). A fault campaign attaches one
// addrsum tracker to each worker's fold tracker and reuses it across trials.
//
// rt.EpochState's binary encoding is WAL-pinned and cannot grow, so the
// address streams seal their own addrsum.EpochState.

// AttachAddr arms address-stream protection on a standalone tracker: the
// instrumented code folds each access's (intended, effective) index pair
// via Addr(), Reset clears it, and ScrubDetector cross-checks its shadow
// copies. Attach before folding; a nil at detaches.
func (t *Tracker) AttachAddr(at *addrsum.Tracker) { t.addr = at }

// Addr returns the attached address-stream tracker, or nil.
func (t *Tracker) Addr() *addrsum.Tracker { return t.addr }
