package rt

import (
	"errors"
	"testing"

	"defuse/internal/addrsum"
)

// TestAddrScrubThroughTracker: a fault in an attached address accumulator
// surfaces from the tracker's ScrubDetector with the addrsum part named.
func TestAddrScrubThroughTracker(t *testing.T) {
	tr := NewTracker()
	at := addrsum.NewTracker()
	tr.AttachAddr(at)
	at.Load(1, 1)
	if err := tr.ScrubDetector(); err != nil {
		t.Fatalf("clean address streams failed scrub: %v", err)
	}
	at.CorruptAccumulator(addrsum.LoadIntent, 9)
	err := tr.ScrubDetector()
	var df *DetectorFaultError
	if !errors.As(err, &df) {
		t.Fatalf("ScrubDetector returned %v, want *DetectorFaultError", err)
	}
	if df.Part != "addrsum" {
		t.Fatalf("detector fault blamed part %q, want addrsum", df.Part)
	}
}
