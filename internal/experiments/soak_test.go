package experiments

import (
	"bytes"
	"encoding/json"
	"testing"
)

// checkSoak runs the registered soak experiment id at seed 42 — which
// itself fails on any invariant violation or on two same-seed runs
// disagreeing byte for byte — and returns its decoded artifact. It also
// runs the soak once at seed 43 and insists the report changes: the soak
// is seeded, not hard-coded.
func checkSoak[R any](t *testing.T, id string, run func(scale float64, seed int64) (*R, error)) *R {
	t.Helper()
	const scale, seed = 1.0, 42
	exp, ok := ByID(id)
	if !ok {
		t.Fatalf("no experiment %q", id)
	}
	rep, err := exp.Run(scale, seed)
	if err != nil {
		t.Fatal(err)
	}
	r := new(R)
	if err := json.Unmarshal(rep.Artifact, r); err != nil {
		t.Fatalf("%s: %v", rep.ArtifactName, err)
	}
	other, err := run(scale, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.MarshalIndent(other, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(append(b, '\n'), rep.Artifact) {
		t.Error("seed change did not change the report")
	}
	return r
}
