package faults

import (
	"net/netip"
	"reflect"
	"testing"

	"repro/internal/dataplane"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

func fdip(i int) dataplane.DIP {
	return netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, 0, byte(i)}), 20)
}

func ms(n int) simtime.Time        { return simtime.Time(n) * simtime.Time(simtime.Millisecond) }
func msDur(n int) simtime.Duration { return simtime.Duration(n) * simtime.Millisecond }
func genCfg(seed uint64) GenConfig {
	return GenConfig{
		Seed:  seed,
		Start: ms(1), End: ms(100),
		Pipes:     2,
		DIPs:      []dataplane.DIP{fdip(1), fdip(2), fdip(3), fdip(4)},
		DIPBursts: 2, BurstSize: 2, DIPDownFor: msDur(20),
		CPUStalls: 1, StallFor: msDur(5),
		Brownouts: 1, BrownoutScale: 4, BrownoutFor: msDur(10),
		TableSqueezes: 1, TableLimit: 100, SqueezeFor: msDur(15),
		DigestLossWindows: 1, DigestLossRate: 0.5, DigestLossFor: msDur(10),
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, b := Generate(genCfg(7)), Generate(genCfg(7))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different plans")
	}
	c := Generate(genCfg(8))
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Fatal("different seeds produced identical plans")
	}
	// 2 bursts × 2 DIPs + 1 stall + 1 brownout + 1 squeeze + 1 loss window.
	if len(a.Events) != 8 {
		t.Fatalf("events = %d, want 8", len(a.Events))
	}
	for i := 1; i < len(a.Events); i++ {
		if a.Events[i].At.Before(a.Events[i-1].At) {
			t.Fatal("plan not time-sorted")
		}
	}
	for _, ev := range a.Events {
		if ev.At.Before(ms(1)) || !ev.At.Before(ms(100)) {
			t.Fatalf("event at %v outside window", ev.At)
		}
	}
}

// fakeTarget records every call the injector makes.
type fakeTarget struct {
	pipes  int
	calls  []string
	stalls map[int]simtime.Duration
	scales map[int]float64
	limits map[int]int
	loss   map[int]float64
	seeds  map[int]uint64
}

func newFakeTarget(pipes int) *fakeTarget {
	return &fakeTarget{
		pipes:  pipes,
		stalls: map[int]simtime.Duration{}, scales: map[int]float64{},
		limits: map[int]int{}, loss: map[int]float64{}, seeds: map[int]uint64{},
	}
}

func (f *fakeTarget) NumPipes() int { return f.pipes }
func (f *fakeTarget) StallCPU(now simtime.Time, pipe int, d simtime.Duration) {
	f.calls = append(f.calls, "stall")
	f.stalls[pipe] += d
}
func (f *fakeTarget) SetInsertRateScale(pipe int, s float64) {
	f.calls = append(f.calls, "scale")
	f.scales[pipe] = s
}
func (f *fakeTarget) SetConnTableLimit(pipe, limit int) {
	f.calls = append(f.calls, "limit")
	f.limits[pipe] = limit
}
func (f *fakeTarget) SetLearnLoss(pipe int, rate float64, seed uint64) {
	f.calls = append(f.calls, "loss")
	f.loss[pipe] = rate
	f.seeds[pipe] = seed
}

func TestInjectorAppliesAndReverts(t *testing.T) {
	plan := Plan{Seed: 3, Events: []Event{
		{At: ms(10), Kind: CPUSlow, Pipe: 0, Scale: 4, Duration: msDur(10)},
		{At: ms(12), Kind: TableLimit, Pipe: -1, Limit: 50, Duration: msDur(5)},
		{At: ms(14), Kind: DigestLoss, Pipe: 1, Scale: 0.25, Duration: msDur(4)},
		{At: ms(15), Kind: CPUStall, Pipe: 1, Duration: msDur(2)},
	}}
	tgt := newFakeTarget(2)
	inj := NewInjector(plan, tgt)
	if inj.Len() != 7 { // 4 events + 3 reverts (CPUStall has none)
		t.Fatalf("Len = %d, want 7", inj.Len())
	}

	inj.Advance(ms(14)) // slow, limit, loss applied; stall not yet
	if tgt.scales[0] != 4 {
		t.Fatalf("scale[0] = %v", tgt.scales[0])
	}
	if tgt.limits[0] != 50 || tgt.limits[1] != 50 {
		t.Fatalf("limits = %v (Pipe=-1 should fan out)", tgt.limits)
	}
	if tgt.loss[1] != 0.25 || tgt.loss[0] != 0 {
		t.Fatalf("loss = %v", tgt.loss)
	}
	if tgt.stalls[1] != 0 {
		t.Fatal("stall fired early")
	}

	inj.Advance(ms(30)) // stall plus all reverts
	if tgt.stalls[1] != msDur(2) {
		t.Fatalf("stall[1] = %v", tgt.stalls[1])
	}
	if tgt.scales[0] != 1 || tgt.limits[0] != 0 || tgt.limits[1] != 0 || tgt.loss[1] != 0 {
		t.Fatalf("reverts missing: scales=%v limits=%v loss=%v", tgt.scales, tgt.limits, tgt.loss)
	}
	if inj.Remaining() != 0 {
		t.Fatalf("Remaining = %d", inj.Remaining())
	}
	m := inj.Metrics()
	if m.Injected != 7 || m.ByKind[CPUSlow] != 2 || m.ByKind[CPUStall] != 1 {
		t.Fatalf("metrics = %+v", m)
	}
	if _, ok := inj.NextEventTime(); ok {
		t.Fatal("drained injector still schedules events")
	}
}

// A plan naming a pipe the target lacks is a counted no-op: the target
// sees no call, but the action is still applied and counted.
func TestInjectorIgnoresMissingPipe(t *testing.T) {
	plan := Plan{Events: []Event{
		{At: ms(1), Kind: CPUStall, Pipe: 2, Duration: msDur(1)},
		{At: ms(1), Kind: TableLimit, Pipe: 2, Limit: 10},
	}}
	tgt := newFakeTarget(2)
	inj := NewInjectorAdvanced(plan, tgt, ms(1))
	if len(tgt.calls) != 0 {
		t.Fatalf("target calls = %v, want none", tgt.calls)
	}
	if m := inj.Metrics(); m.Injected != 2 {
		t.Fatalf("Injected = %d, want 2", m.Injected)
	}
}

func TestWrapProbeTracksDownSet(t *testing.T) {
	plan := Plan{Events: []Event{
		{At: ms(10), Kind: DIPDown, DIP: fdip(1), Pipe: -1, Duration: msDur(20)},
		{At: ms(15), Kind: DIPDown, DIP: fdip(2), Pipe: -1}, // permanent
	}}
	inj := NewInjector(plan, newFakeTarget(1))
	probes := 0
	probe := inj.WrapProbe(func(now simtime.Time, d dataplane.DIP) bool {
		probes++
		return true
	})

	if !probe(ms(0), fdip(1)) {
		t.Fatal("DIP down before its event")
	}
	inj.Advance(ms(15))
	if probe(ms(16), fdip(1)) || probe(ms(16), fdip(2)) {
		t.Fatal("held-down DIP answered a probe")
	}
	if !inj.DIPDown(fdip(1)) {
		t.Fatal("DIPDown not reported")
	}
	inj.Advance(ms(30)) // fdip(1) auto-recovers, fdip(2) is permanent
	if !probe(ms(31), fdip(1)) {
		t.Fatal("recovered DIP still failing probes")
	}
	if probe(ms(31), fdip(2)) {
		t.Fatal("permanently-down DIP recovered")
	}
	// Underlying probe consulted only for up DIPs: fdip(1) before its
	// outage and after recovery.
	if probes != 2 {
		t.Fatalf("inner probe called %d times, want 2", probes)
	}
	// nil inner probe = always healthy when not held down.
	p := inj.WrapProbe(nil)
	if !p(ms(31), fdip(3)) || p(ms(31), fdip(2)) {
		t.Fatal("nil-probe wrapper wrong")
	}
}

func TestInjectorEmitsFaultEvents(t *testing.T) {
	rec := telemetry.NewRegistry()
	plan := Plan{Events: []Event{
		{At: ms(1), Kind: TableLimit, Pipe: 0, Limit: 10, Duration: msDur(2)},
		{At: ms(2), Kind: DIPDown, DIP: fdip(1), Pipe: -1},
	}}
	inj := NewInjector(plan, newFakeTarget(1))
	inj.SetTracer(rec)
	inj.Advance(ms(10))
	snap := rec.Snapshot(ms(10))
	if got := snap.Counters[telemetry.MetricFaultsInjected]; got != 3 {
		t.Fatalf("%s = %v, want 3", telemetry.MetricFaultsInjected, got)
	}
}

func TestPerPipeDigestSeedsDiffer(t *testing.T) {
	plan := Plan{Seed: 42, Events: []Event{
		{At: ms(1), Kind: DigestLoss, Pipe: -1, Scale: 0.5},
	}}
	tgt := newFakeTarget(2)
	NewInjectorAdvanced(plan, tgt, ms(1))
	if tgt.seeds[0] == tgt.seeds[1] {
		t.Fatal("per-pipe digest-loss seeds identical")
	}
}

// NewInjectorAdvanced is a test helper: build and advance in one step.
func NewInjectorAdvanced(plan Plan, tgt Target, now simtime.Time) *Injector {
	inj := NewInjector(plan, tgt)
	inj.Advance(now)
	return inj
}
