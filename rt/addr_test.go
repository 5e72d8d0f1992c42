package rt_test

import (
	"errors"
	"testing"

	"defuse/internal/addrsum"
	"defuse/internal/checksum"
	"defuse/rt"
)

// TestAddrScrubThroughTracker: the address-stream ledger is a plain tracker,
// so a fault in one of its accumulators surfaces from ScrubDetector as an
// accumulator detector fault, the same as for the data ledger.
func TestAddrScrubThroughTracker(t *testing.T) {
	tr := rt.NewTracker()
	addrsum.Fold(tr, 1, 1, 1)
	if err := tr.ScrubDetector(); err != nil {
		t.Fatalf("clean address streams failed scrub: %v", err)
	}
	tr.CorruptAccumulator(checksum.AccUse, 9)
	err := tr.ScrubDetector()
	var df *rt.DetectorFaultError
	if !errors.As(err, &df) {
		t.Fatalf("ScrubDetector returned %v, want *rt.DetectorFaultError", err)
	}
	if df.Part != "accumulator" {
		t.Fatalf("detector fault blamed part %q, want accumulator", df.Part)
	}
}
