package silkroad

import (
	"testing"
	"time"

	"repro/internal/netproto"
)

// sloBenchSwitch builds the overhead workload's switch: four pipes, a
// telemetry registry (both sides pay for instrumentation — the comparison
// isolates the evaluator), and optionally an armed SLO evaluator ticking
// every virtual millisecond.
func sloBenchSwitch(tb testing.TB, armed bool) *Switch {
	tb.Helper()
	cfg := Defaults(1_000_000)
	cfg.Pipes = 4
	cfg.Clock = NewManualClock(0)
	cfg.Telemetry = NewTelemetry()
	if armed {
		// Denser than the production 1s default so the evaluator ticks
		// repeatedly inside the short measured region.
		cfg.SLO = &SLOConfig{Interval: 100 * Microsecond}
	}
	sw, err := NewSwitch(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if err := sw.AddVIP(0, testVIP(), Pool("10.0.0.1:20", "10.0.0.2:20", "10.0.0.3:20")); err != nil {
		tb.Fatal(err)
	}
	return sw
}

const (
	sloBenchConns = 8192
	sloBenchBatch = 256
)

// sloBenchPrime opens the established working set, drains insertions, and
// returns the working set's ACK frames for the measured region.
func sloBenchPrime(tb testing.TB, sw *Switch) []Frame {
	tb.Helper()
	results := make([]Result, sloBenchBatch)
	syn := clientFrames(tb, sloBenchConns, netproto.FlagSYN)
	for base := 0; base < sloBenchConns; base += sloBenchBatch {
		sw.ProcessFramesInto(0, syn[base:base+sloBenchBatch], results)
	}
	sw.Advance(Time(10 * Millisecond))
	return clientFrames(tb, sloBenchConns, netproto.FlagACK)
}

// sloBenchMeasure runs established-traffic passes over ack and returns
// wallclock packets per second. Virtual time steps a microsecond per batch
// with a per-batch AdvanceTo (the scheduler drives background sources, the
// SLO evaluator among them), and the cursor threads across repetitions so
// virtual time keeps moving forward.
func sloBenchMeasure(sw *Switch, ack []Frame, passes int, now *Time) float64 {
	results := make([]Result, sloBenchBatch)
	before := sw.Stats().Dataplane.Packets
	start := time.Now()
	for p := 0; p < passes; p++ {
		for base := 0; base < sloBenchConns; base += sloBenchBatch {
			sw.ProcessFramesInto(*now, ack[base:base+sloBenchBatch], results)
			*now = now.Add(Microsecond)
			sw.AdvanceTo(*now)
		}
	}
	elapsed := time.Since(start).Seconds()
	done := sw.Stats().Dataplane.Packets - before
	if elapsed <= 0 || done == 0 {
		return 0
	}
	return float64(done) / elapsed
}

// TestSLOArmedOverheadGate is the issue's acceptance bar: arming the SLO
// evaluator costs the packet path under 2%. Armed and disarmed switches
// run the identical workload in interleaved repetitions; each side keeps
// its fastest repetition (shared-host interference only ever slows a rep
// down), and the gate compares the bests with the 2% bar.
func TestSLOArmedOverheadGate(t *testing.T) {
	if testing.Short() {
		t.Skip("wallclock gate; skipped with -short")
	}
	swOff := sloBenchSwitch(t, false)
	defer swOff.Close()
	swOn := sloBenchSwitch(t, true)
	defer swOn.Close()
	ackOff := sloBenchPrime(t, swOff)
	ackOn := sloBenchPrime(t, swOn)

	const reps, passes = 5, 8
	var bestOff, bestOn float64
	nowOff, nowOn := Time(20*Millisecond), Time(20*Millisecond)
	evalsBefore := swOn.SLO().Report().Evals
	for r := 0; r < reps; r++ {
		if pps := sloBenchMeasure(swOff, ackOff, passes, &nowOff); pps > bestOff {
			bestOff = pps
		}
		if pps := sloBenchMeasure(swOn, ackOn, passes, &nowOn); pps > bestOn {
			bestOn = pps
		}
	}
	if bestOff == 0 || bestOn == 0 {
		t.Fatalf("no throughput measured (off=%v on=%v)", bestOff, bestOn)
	}
	ratio := bestOn / bestOff
	t.Logf("disarmed %.0f pps, armed %.0f pps, ratio %.4f", bestOff, bestOn, ratio)
	if evals := swOn.SLO().Report().Evals; evals <= evalsBefore {
		t.Fatal("armed evaluator never ticked inside the measured region")
	}
	if ratio < 0.98 {
		t.Errorf("armed SLO evaluator costs %.1f%% throughput, want < 2%%", 100*(1-ratio))
	}
}

// BenchmarkSLOOverhead reports the same comparison as standard Go
// benchmarks for manual runs.
func BenchmarkSLOOverhead(b *testing.B) {
	for _, side := range []struct {
		name  string
		armed bool
	}{{"disarmed", false}, {"armed", true}} {
		b.Run(side.name, func(b *testing.B) {
			sw := sloBenchSwitch(b, side.armed)
			defer sw.Close()
			ack := sloBenchPrime(b, sw)
			results := make([]Result, sloBenchBatch)
			now := Time(20 * Millisecond)
			b.ReportAllocs()
			b.SetBytes(sloBenchBatch)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				base := (i * sloBenchBatch) % sloBenchConns
				sw.ProcessFramesInto(now, ack[base:base+sloBenchBatch], results)
				now = now.Add(Microsecond)
				sw.AdvanceTo(now)
			}
		})
	}
}
