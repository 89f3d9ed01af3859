package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// soakVerdict ends every soak report: the failed invariants in a fixed
// order, and their emptiness. Embedding it lets runSoak read the verdict
// of any report type.
type soakVerdict struct {
	Violations   []string `json:"invariant_violations"`
	InvariantsOK bool     `json:"invariants_ok"`
}

// setViolations records the invariant check of a finished run.
func (v *soakVerdict) setViolations(violations []string) {
	v.Violations = violations
	v.InvariantsOK = len(violations) == 0
}

func (v *soakVerdict) verdict() *soakVerdict { return v }

// runSoak is the shared body of the registered soak experiments: it runs
// the soak twice with the same seed, prints the soak's own summary lines
// followed by the invariant and determinism verdicts, fails on any
// invariant violation or byte difference between the two reports, and
// emits the first report as the artifact.
func runSoak[R interface{ verdict() *soakVerdict }](
	id, title, artifact string, scale float64, seed int64,
	run func(scale float64, seed int64) (R, error),
	summary func(rep *Report, r R),
) (*Report, error) {
	r1, err := run(scale, seed)
	if err != nil {
		return nil, err
	}
	r2, err := run(scale, seed)
	if err != nil {
		return nil, err
	}
	b1, err := json.MarshalIndent(r1, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("%s: %w", id, err)
	}
	b2, err := json.MarshalIndent(r2, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("%s: %w", id, err)
	}
	deterministic := bytes.Equal(b1, b2)
	v := r1.verdict()

	rep := &Report{ID: id, Title: title}
	summary(rep, r1)
	if v.InvariantsOK {
		rep.Printf("invariants: all hold")
	} else {
		for _, s := range v.Violations {
			rep.Printf("INVARIANT VIOLATED: %s", s)
		}
	}
	if deterministic {
		rep.Printf("determinism: second run with seed %d reproduced the report byte for byte", seed)
	} else {
		rep.Printf("DETERMINISM VIOLATED: same seed produced a different report")
	}
	if !v.InvariantsOK || !deterministic {
		return nil, fmt.Errorf("%s soak failed: %v (deterministic=%v)", id, v.Violations, deterministic)
	}
	rep.ArtifactName = artifact
	rep.Artifact = append(b1, '\n')
	return rep, nil
}
