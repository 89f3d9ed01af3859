package pipes

// Tests for the frame batch path: frames through the persistent worker
// rings must decide exactly like packets run one at a time through
// Process, and the steady-state frames sweep must not allocate.

import (
	"fmt"
	"testing"

	"repro/internal/dataplane"
	"repro/internal/netproto"
	"repro/internal/simtime"
)

// framesOf materializes one frame per connection index in [0, n): the tuple
// tupleOf(i) marshaled to wire bytes and parsed once, like the tunnel's
// receive path.
func framesOf(t testing.TB, n int, flags uint8, tupleOf func(i int) netproto.FiveTuple) []netproto.Frame {
	t.Helper()
	frames := make([]netproto.Frame, n)
	for i := range frames {
		p := netproto.Packet{Tuple: tupleOf(i), TCPFlags: flags}
		raw, err := p.Marshal(nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := netproto.ParseFrame(raw, &frames[i]); err != nil {
			t.Fatal(err)
		}
	}
	return frames
}

// framesN is framesOf over tupleN.
func framesN(t testing.TB, n int, flags uint8) []netproto.Frame {
	t.Helper()
	return framesOf(t, n, flags, tupleN)
}

// batch runs frames through ProcessFramesInto into a fresh results slice.
func batch(e *Engine, now simtime.Time, frames []netproto.Frame) []dataplane.Result {
	results := make([]dataplane.Result, len(frames))
	e.ProcessFramesInto(now, frames, results)
	return results
}

// matchesPacketTwin runs frames as one batch on e and the same packets one
// at a time through Process on twin, and fails on any difference in the
// fields that define a decision: verdict, DIP, key hash, digest, version.
// The batch is frames and the twin is structs, so this also checks that
// the two currencies are two entries into one pipeline.
func matchesPacketTwin(t *testing.T, label string, e, twin *Engine, now simtime.Time, frames []netproto.Frame) {
	t.Helper()
	got := batch(e, now, frames)
	for i := range frames {
		f := &frames[i]
		want := twin.Process(now, &netproto.Packet{Tuple: f.Tuple, TCPFlags: f.TCPFlags, Seq: f.Seq, Payload: f.Payload()})
		g := got[i]
		if g.Verdict != want.Verdict || g.DIP != want.DIP || g.KeyHash != want.KeyHash ||
			g.Digest != want.Digest || g.Version != want.Version {
			t.Fatalf("%s, %d pipes, packet %d: batch %+v, per-packet %+v", label, e.NumPipes(), i, g, want)
		}
	}
}

// TestFramesBatchMatchesStructBatch runs the same workload — SYN round,
// established rounds, a DIP pool update in the middle — as frame batches
// on one engine and packet by packet on a twin, at 1, 2 and 4 pipes. Both
// engines must also shard identically (same seeds, same lanes).
func TestFramesBatchMatchesStructBatch(t *testing.T) {
	for _, pipes := range []int{1, 2, 4} {
		framesEng := newTestEngine(t, pipes, 10000)
		structEng := newTestEngine(t, pipes, 10000)
		const conns = 300
		now := simtime.Time(0)
		for round := 0; round < 6; round++ {
			flags := netproto.FlagACK
			if round == 0 {
				flags = netproto.FlagSYN
			}
			matchesPacketTwin(t, fmt.Sprintf("round %d", round), framesEng, structEng, now, framesN(t, conns, flags))
			if round == 2 {
				// Shrink the pool mid-workload on both engines: the frame
				// path must ride the 3-step update identically.
				if err := framesEng.RemoveDIP(now, testVIP(), testPool(8)[7]); err != nil {
					t.Fatal(err)
				}
				if err := structEng.RemoveDIP(now, testVIP(), testPool(8)[7]); err != nil {
					t.Fatal(err)
				}
			}
			now = now.Add(simtime.Duration(simtime.Second))
			framesEng.Advance(now)
			structEng.Advance(now)
		}
		fs, ss := framesEng.Stats(), structEng.Stats()
		for pi := range fs.PipePackets {
			if fs.PipePackets[pi] != ss.PipePackets[pi] {
				t.Fatalf("%d pipes, pipe %d: frames engine %d packets, struct engine %d — shard divergence",
					pipes, pi, fs.PipePackets[pi], ss.PipePackets[pi])
			}
		}
	}
}

// TestEngineProcessFrameSingle covers the one-at-a-time frame entry point:
// it must pin connections to the same pipe as the batch path.
func TestEngineProcessFrameSingle(t *testing.T) {
	e := newTestEngine(t, 4, 10000)
	now := simtime.Time(0)
	syn := framesN(t, 64, netproto.FlagSYN)
	for i := range syn {
		if res := e.ProcessFrame(now, &syn[i]); res.Verdict != dataplane.VerdictForward {
			t.Fatalf("SYN %d: %v", i, res.Verdict)
		}
	}
	now = now.Add(simtime.Duration(10 * simtime.Second))
	e.Advance(now)
	ack := framesN(t, 64, netproto.FlagACK)
	for i := range ack {
		res := e.ProcessFrame(now, &ack[i])
		if res.Verdict != dataplane.VerdictForward || !res.ConnHit {
			t.Fatalf("ACK %d not a ConnTable hit: %+v", i, res)
		}
	}
	if got := e.Stats().Connections; got != 64 {
		t.Fatalf("connections = %d, want 64", got)
	}
}

// TestFramesBatchSteadyStateAllocs guards the wire path's allocation-free
// claim through the worker rings: established frames swept with
// ProcessFramesInto must allocate nothing.
func TestFramesBatchSteadyStateAllocs(t *testing.T) {
	e := newTestEngine(t, 4, 10000)
	const conns = 256
	now := simtime.Time(0)
	batch(e, now, framesN(t, conns, netproto.FlagSYN))
	now = now.Add(simtime.Duration(10 * simtime.Second))
	e.Advance(now)
	frames := framesN(t, conns, netproto.FlagACK)
	results := make([]dataplane.Result, conns)
	e.ProcessFramesInto(now, frames, results) // warm the reusable buffers
	avg := testing.AllocsPerRun(20, func() {
		e.ProcessFramesInto(now, frames, results)
	})
	if avg != 0 {
		t.Fatalf("steady-state frames batch allocates %.1f times per %d packets, want 0", avg, conns)
	}
}
