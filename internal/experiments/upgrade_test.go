package experiments

import "testing"

// TestUpgradeSoak is the rolling-upgrade soak as a regression gate (CI
// runs it under -race): a fixed seed, every rollout invariant — zero PCC
// violations against the exact-tuple shadow (including flows learned
// mid-update on the drained member), zero established-flow drops, every
// member rolled — and byte-identical reports across two runs.
func TestUpgradeSoak(t *testing.T) {
	r := checkSoak(t, "upgrade", RunUpgradeSoak)

	// Sanity beyond the report's own checks: the soak exercised what it
	// claims to.
	if r.FlowsEstablished < r.FlowsStarted/4 {
		t.Errorf("established only %d of %d flows", r.FlowsEstablished, r.FlowsStarted)
	}
	if r.HandoffDeltas == 0 {
		t.Error("no delta was ever replayed: the donor paused or traffic missed the transfer window")
	}
	if r.MovedFlows < r.FlowsEstablished/10 {
		t.Errorf("only %d of %d established flows were ever served by a second member",
			r.MovedFlows, r.FlowsEstablished)
	}
}
