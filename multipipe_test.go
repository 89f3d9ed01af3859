package silkroad

// Facade-level tests for the multi-pipe data plane: Config.Pipes > 1
// shards traffic across independent pipes behind the same Switch API.

import (
	"math/rand"
	"net/netip"
	"testing"

	"repro/internal/ctrlplane"
	"repro/internal/dataplane"
	"repro/internal/netproto"
)

func newMultiSwitch(t *testing.T, pipes int) *Switch {
	t.Helper()
	cfg := Defaults(100000)
	cfg.Pipes = pipes
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.AddVIP(0, testVIP(), Pool("10.0.0.1:20", "10.0.0.2:20", "10.0.0.3:20")); err != nil {
		t.Fatal(err)
	}
	return sw
}

// TestMultiPipeEndToEnd drives the full facade surface against a 4-pipe
// switch: process, batch, pool updates under PCC, termination, stats.
func TestMultiPipeEndToEnd(t *testing.T) {
	sw := newMultiSwitch(t, 4)
	if sw.Pipes() != 4 || sw.Engine() == nil {
		t.Fatalf("Pipes() = %d, Engine() = %v", sw.Pipes(), sw.Engine())
	}

	const conns = 500
	first := make([]DIP, conns)
	for i, res := range processFrames(sw, 0, clientFrames(t, conns, netproto.FlagSYN)) {
		if res.Verdict != dataplane.VerdictForward || !res.DIP.IsValid() {
			t.Fatalf("conn %d: %+v", i, res)
		}
		first[i] = res.DIP
	}

	now := Time(Second)
	sw.Advance(now)
	removed := Pool("10.0.0.1:20")[0]
	if err := sw.RemoveDIP(now, testVIP(), removed); err != nil {
		t.Fatal(err)
	}
	now = now.Add(Duration(Second))
	sw.Advance(now)

	for i := 0; i < conns; i++ {
		if first[i] == removed {
			continue
		}
		res := sw.Process(now, clientPkt(i, netproto.FlagACK))
		if res.Verdict != dataplane.VerdictForward || res.DIP != first[i] {
			t.Fatalf("conn %d: PCC violated across pool update: first %v, now %+v", i, first[i], res)
		}
	}

	st := sw.Stats()
	if st.Dataplane.Packets == 0 || st.Connections == 0 {
		t.Fatalf("aggregate stats empty: %+v", st)
	}
	if len(sw.Engine().Stats().PipePackets) != 4 {
		t.Fatal("per-pipe packet counters missing")
	}

	tup := clientPkt(3, 0).Tuple
	sw.EndConnection(now, tup)
	now = now.Add(Duration(Second))
	sw.Advance(now)
	res := sw.Process(now, clientPkt(3, netproto.FlagSYN))
	if res.Verdict != dataplane.VerdictForward {
		t.Fatalf("reconnect after EndConnection: %+v", res)
	}
}

// TestMultiPipeMatchesSinglePipe asserts sharding is invisible to
// clients: identical workloads on 1-pipe and 4-pipe switches yield the
// same verdict for every packet and the same total packet count.
func TestMultiPipeMatchesSinglePipe(t *testing.T) {
	one := newMultiSwitch(t, 1)
	four := newMultiSwitch(t, 4)
	var pkts []*Packet
	for i := 0; i < 300; i++ {
		pkts = append(pkts, clientPkt(i%150, netproto.FlagSYN))
	}
	frames := framesOf(t, pkts...)
	r1 := processFrames(one, 0, frames)
	r4 := processFrames(four, 0, frames)
	for i := range pkts {
		if r1[i].Verdict != r4[i].Verdict {
			t.Fatalf("packet %d: single-pipe %v, multi-pipe %v", i, r1[i].Verdict, r4[i].Verdict)
		}
	}
	if p1, p4 := one.Stats().Dataplane.Packets, four.Stats().Dataplane.Packets; p1 != p4 {
		t.Fatalf("packet accounting differs: %d vs %d", p1, p4)
	}
}

// TestSinglePipeBatchMatchesProcess asserts a frame batch on a
// single-pipe switch is just a loop over Process on the same packets.
func TestSinglePipeBatchMatchesProcess(t *testing.T) {
	batch := newSwitch(t)
	loop := newSwitch(t)
	var pkts []*Packet
	for i := 0; i < 100; i++ {
		pkts = append(pkts, clientPkt(i%40, netproto.FlagSYN))
	}
	got := processFrames(batch, 0, framesOf(t, pkts...))
	for i, pkt := range pkts {
		want := loop.Process(0, pkt)
		if got[i] != want {
			t.Fatalf("packet %d: batch %+v, loop %+v", i, got[i], want)
		}
	}
}

// TestSinglePipeHashingMatchesBarePlanes pins one-pipe hashing: a switch
// built with Pipes 0 or 1 runs on an engine whose pipe hashes exactly like
// a bare data plane built from the same config — same key hash, same
// digest, and so the same DIP for every new connection.
func TestSinglePipeHashingMatchesBarePlanes(t *testing.T) {
	pool := Pool("10.0.0.1:20", "10.0.0.2:20", "10.0.0.3:20", "10.0.0.4:20", "10.0.0.5:20")
	for _, pipes := range []int{0, 1} {
		cfg := Defaults(100000)
		cfg.Pipes = pipes
		sw, err := NewSwitch(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if sw.Engine() == nil || sw.Pipes() != 1 {
			t.Fatalf("pipes=%d: Engine() = %v, Pipes() = %d", pipes, sw.Engine(), sw.Pipes())
		}
		dp, err := dataplane.New(cfg.Dataplane)
		if err != nil {
			t.Fatal(err)
		}
		cp := ctrlplane.New(dp, cfg.Controlplane)
		if err := sw.AddVIP(0, testVIP(), pool); err != nil {
			t.Fatal(err)
		}
		if err := cp.AddVIP(0, testVIP(), pool, 0); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 400; i++ {
			pkt := clientPkt(0, netproto.FlagSYN)
			pkt.Tuple.Src = netip.AddrFrom4([4]byte{byte(rng.Intn(223) + 1), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))})
			pkt.Tuple.SrcPort = uint16(1024 + rng.Intn(64000))
			tup := pkt.Tuple
			if got, want := sw.Dataplane().KeyHash(tup), dp.KeyHash(tup); got != want {
				t.Fatalf("pipes=%d tuple %d: KeyHash %#x, bare data plane %#x", pipes, i, got, want)
			}
			if got, want := sw.Dataplane().ConnDigest(tup), dp.ConnDigest(tup); got != want {
				t.Fatalf("pipes=%d tuple %d: ConnDigest %#x, bare data plane %#x", pipes, i, got, want)
			}
			now := Time(i) * Time(Microsecond)
			got := sw.Process(now, pkt)
			want := cp.Process(now, pkt)
			if got.Verdict != dataplane.VerdictForward || got.DIP != want.DIP {
				t.Fatalf("pipes=%d tuple %d: SYN went to %v (%v), bare planes chose %v", pipes, i, got.DIP, got.Verdict, want.DIP)
			}
		}
	}
}

// TestEmptyPoolNoBackendFacade is the acceptance check for the
// empty-pool fix at the facade: when a VIP's hardware pool row is empty —
// a state the control-plane API refuses to create but the hardware can
// reach (mid-update windows, direct table writes) — every packet drops
// with VerdictNoBackend on both single- and multi-pipe switches, and
// Forward surfaces it as an error rather than DIP{}.
func TestEmptyPoolNoBackendFacade(t *testing.T) {
	for _, pipes := range []int{1, 4} {
		cfg := Defaults(10000)
		cfg.Pipes = pipes
		sw, err := NewSwitch(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.AddVIP(0, testVIP(), Pool("10.0.0.1:20")); err != nil {
			t.Fatal(err)
		}
		// Empty the pool row in hardware on every pipe.
		if pipes == 1 {
			if err := sw.Dataplane().WritePool(testVIP(), 0, nil); err != nil {
				t.Fatal(err)
			}
		} else {
			for i := 0; i < pipes; i++ {
				if err := sw.Engine().Dataplane(i).WritePool(testVIP(), 0, nil); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < 50; i++ {
			res := sw.Process(0, clientPkt(i, netproto.FlagSYN))
			if res.Verdict != dataplane.VerdictNoBackend {
				t.Fatalf("pipes=%d packet %d: verdict = %v, want %v",
					pipes, i, res.Verdict, dataplane.VerdictNoBackend)
			}
			if res.DIP.IsValid() {
				t.Fatalf("pipes=%d: forwarded to %v from empty pool", pipes, res.DIP)
			}
		}
		if nb := sw.Stats().Dataplane.NoBackend; nb != 50 {
			t.Fatalf("pipes=%d: NoBackend = %d, want 50", pipes, nb)
		}
		raw, err := clientPkt(99, netproto.FlagSYN).Marshal(nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sw.Forward(0, raw); err == nil {
			t.Fatalf("pipes=%d: Forward on empty pool should error", pipes)
		}
	}
}

// TestFaultPlanOnPipes runs a Config.Faults plan through the facade: the
// squeeze on pipe 1 shrinks only pipe 1's ConnTable, and an event naming
// a pipe the switch lacks is counted but touches nothing.
func TestFaultPlanOnPipes(t *testing.T) {
	cfg := Defaults(100000)
	cfg.Pipes = 2
	cfg.Faults = &FaultPlan{Events: []FaultEvent{
		{At: Time(Millisecond), Kind: FaultTableLimit, Pipe: 1, Limit: 100},
		{At: Time(Millisecond), Kind: FaultTableLimit, Pipe: 5, Limit: 100},
	}}
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	before := sw.DegradedState().Pipes
	sw.AdvanceTo(Time(2 * Millisecond))
	after := sw.DegradedState().Pipes

	if after[0].Capacity != before[0].Capacity {
		t.Errorf("pipe 0 capacity %d -> %d, want unchanged", before[0].Capacity, after[0].Capacity)
	}
	if after[1].Capacity != 100 || before[1].Capacity <= 100 {
		t.Errorf("pipe 1 capacity %d -> %d, want squeezed to 100", before[1].Capacity, after[1].Capacity)
	}
	if m := sw.Faults().Metrics(); m.Injected != 2 {
		t.Errorf("Injected = %d, want 2", m.Injected)
	}
}
