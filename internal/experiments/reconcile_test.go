package experiments

import "testing"

// TestReconcileSoak is the reconcile soak as a regression gate (CI runs it
// under -race): a fixed seed, every controller invariant — convergence,
// zero PCC violations, rollback + retry + drift exercised, idempotent
// re-apply — and byte-identical reports across two runs.
func TestReconcileSoak(t *testing.T) {
	r := checkSoak(t, "reconcile", RunReconcileSoak)

	// Sanity beyond the report's own checks: the soak exercised what it
	// claims to.
	if r.FlowsEstablished < r.FlowsStarted/4 {
		t.Errorf("established only %d of %d flows", r.FlowsEstablished, r.FlowsStarted)
	}
	if r.FaultsInjected == 0 {
		t.Error("no faults injected")
	}
	if r.Applies == 0 {
		t.Error("no reconcile applies recorded")
	}
}
