package experiments

import "testing"

// TestChaosSoak is the chaos soak as a regression gate (CI runs it under
// -race): a fixed seed, every robustness invariant, and byte-identical
// reports across two runs.
func TestChaosSoak(t *testing.T) {
	r := checkSoak(t, "chaos", RunChaosSoak)

	// Sanity beyond the report's own checks: the soak actually loaded the
	// switch hard enough for the invariants to mean something.
	if r.FlowsEstablished < r.Capacity/2 {
		t.Errorf("established only %d flows against capacity %d", r.FlowsEstablished, r.Capacity)
	}
	if r.FaultsInjected == 0 {
		t.Error("no faults injected")
	}
}
