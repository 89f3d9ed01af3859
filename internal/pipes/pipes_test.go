package pipes

import (
	"fmt"
	"net/netip"
	"sync"
	"testing"

	"repro/internal/ctrlplane"
	"repro/internal/dataplane"
	"repro/internal/netproto"
	"repro/internal/simtime"
)

func testConfig(pipes, conns int) Config {
	return Config{
		Pipes:        pipes,
		Dataplane:    dataplane.DefaultConfig(conns),
		Controlplane: ctrlplane.DefaultConfig(),
	}
}

func testVIP() dataplane.VIP {
	return dataplane.VIP{Addr: netip.MustParseAddr("20.0.0.1"), Port: 80, Proto: netproto.ProtoTCP}
}

func testPool(n int) []dataplane.DIP {
	out := make([]dataplane.DIP, n)
	for i := range out {
		out[i] = netip.MustParseAddrPort(fmt.Sprintf("10.0.0.%d:80", i+1))
	}
	return out
}

func tupleN(i int) netproto.FiveTuple {
	return netproto.FiveTuple{
		Src:     netip.AddrFrom4([4]byte{9, byte(i >> 16), byte(i >> 8), byte(i)}),
		Dst:     netip.MustParseAddr("20.0.0.1"),
		SrcPort: uint16(1024 + i%50000), DstPort: 80, Proto: netproto.ProtoTCP,
	}
}

// TestShardingPinsConnections asserts every connection maps to a stable
// pipe, traffic spreads across pipes, and per-pipe ConnTables stay
// disjoint.
func TestShardingPinsConnections(t *testing.T) {
	e, err := New(testConfig(4, 10000))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddVIP(0, testVIP(), testPool(8), 0); err != nil {
		t.Fatal(err)
	}
	const conns = 800
	seen := map[int]int{}
	for i := 0; i < conns; i++ {
		tup := tupleN(i)
		pi := e.PipeOf(tup)
		if again := e.PipeOf(tup); again != pi {
			t.Fatalf("PipeOf not stable: %d then %d", pi, again)
		}
		seen[pi]++
		res := e.Process(0, &netproto.Packet{Tuple: tup, TCPFlags: netproto.FlagSYN})
		if res.Verdict != dataplane.VerdictForward {
			t.Fatalf("conn %d: verdict = %v", i, res.Verdict)
		}
	}
	if len(seen) != 4 {
		t.Fatalf("only %d of 4 pipes saw traffic: %v", len(seen), seen)
	}
	for pi, n := range seen {
		// A uniform shard puts ~200 connections on each pipe; a pipe with
		// fewer than half or more than double signals a broken shard hash.
		if n < conns/8 || n > conns/2 {
			t.Errorf("pipe %d holds %d/%d connections — shard badly skewed", pi, n, conns)
		}
	}
	st := e.Stats()
	if st.Dataplane.Packets != conns {
		t.Fatalf("aggregate packets = %d, want %d", st.Dataplane.Packets, conns)
	}
	var sum uint64
	for _, p := range st.PipePackets {
		sum += p
	}
	if sum != conns {
		t.Fatalf("per-pipe packet sum = %d, want %d", sum, conns)
	}
}

// TestBatchMatchesSequential asserts a frame batch returns, in input
// order, exactly the results a sequential per-packet run yields on an
// identical engine — including a SYN batch that repeats connections, so
// later copies see the state earlier copies left behind.
func TestBatchMatchesSequential(t *testing.T) {
	for _, pipes := range []int{1, 2, 4} {
		frames := framesOf(t, 300, netproto.FlagSYN, func(i int) netproto.FiveTuple { return tupleN(i % 120) })
		matchesPacketTwin(t, "repeated SYNs", newTestEngine(t, pipes, 10000), newTestEngine(t, pipes, 10000), 1000, frames)
	}
}

// TestPerConnectionConsistencyAcrossBatches asserts a connection keeps its
// DIP across batches and across a PCC pool update, on every pipe.
func TestPerConnectionConsistencyAcrossBatches(t *testing.T) {
	e, err := New(testConfig(4, 10000))
	if err != nil {
		t.Fatal(err)
	}
	vip := testVIP()
	pool := testPool(8)
	if err := e.AddVIP(0, vip, pool, 0); err != nil {
		t.Fatal(err)
	}
	const conns = 400
	first := make(map[int]dataplane.DIP, conns)
	now := simtime.Time(0)
	for i, res := range batch(e, now, framesN(t, conns, netproto.FlagSYN)) {
		if res.Verdict != dataplane.VerdictForward {
			t.Fatalf("conn %d: verdict %v", i, res.Verdict)
		}
		first[i] = res.DIP
	}
	// Let every pipe's CPU install the learned connections, then remove a
	// DIP under PCC.
	now = now.Add(simtime.Duration(simtime.Second))
	e.Advance(now)
	removed := pool[0]
	if err := e.RemoveDIP(now, vip, removed); err != nil {
		t.Fatal(err)
	}
	now = now.Add(simtime.Duration(simtime.Second))
	e.Advance(now)

	for i, res := range batch(e, now, framesN(t, conns, netproto.FlagACK)) {
		if first[i] == removed {
			continue // pinned to the DIP that left service; exempt
		}
		if res.Verdict != dataplane.VerdictForward || res.DIP != first[i] {
			t.Fatalf("conn %d: PCC violated: first %v, now (%v, %v)",
				i, first[i], res.Verdict, res.DIP)
		}
	}
}

// TestAggregatedStats asserts engine stats equal the sum over per-pipe
// stats, and that connection counts and SRAM figures aggregate.
func TestAggregatedStats(t *testing.T) {
	e, err := New(testConfig(3, 9000))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddVIP(0, testVIP(), testPool(4), 0); err != nil {
		t.Fatal(err)
	}
	batch(e, 0, framesN(t, 500, netproto.FlagSYN))
	e.Advance(simtime.Time(simtime.Second))

	var want dataplane.Stats
	var conns, mem int
	var inserted uint64
	for i := 0; i < e.NumPipes(); i++ {
		want.Add(e.Dataplane(i).Stats())
		conns += e.Controlplane(i).TrackedConns()
		mem += e.Dataplane(i).Memory().Total()
		inserted += e.Controlplane(i).Metrics().Inserted
	}
	got := e.Stats()
	if got.Dataplane != want {
		t.Fatalf("aggregate dataplane stats:\n got %+v\nwant %+v", got.Dataplane, want)
	}
	if got.Connections != conns || got.MemoryBytes != mem {
		t.Fatalf("aggregate conns/mem = (%d, %d), want (%d, %d)",
			got.Connections, got.MemoryBytes, conns, mem)
	}
	if got.Controlplane.Inserted != inserted || inserted == 0 {
		t.Fatalf("aggregate inserted = %d, want %d (nonzero)", got.Controlplane.Inserted, inserted)
	}
	if got.MemoryBytes != e.Memory().Total() {
		t.Fatalf("Stats.MemoryBytes = %d, Memory().Total() = %d", got.MemoryBytes, e.Memory().Total())
	}
}

// TestPerPipeSRAMBudget asserts each pipe is provisioned with its share of
// the chip budget, so chip-level allocated SRAM stays within the chip.
func TestPerPipeSRAMBudget(t *testing.T) {
	cfg := testConfig(4, 100000)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	perPipe := cfg.Dataplane.Chip.SRAMBytes / 4
	for i := 0; i < 4; i++ {
		chip := e.Dataplane(i).Chip()
		if chip.Config().SRAMBytes != perPipe {
			t.Errorf("pipe %d budget = %d, want %d", i, chip.Config().SRAMBytes, perPipe)
		}
	}
	if used := e.Used().SRAMBytes; used > cfg.Dataplane.Chip.SRAMBytes {
		t.Errorf("chip-level allocated SRAM %d exceeds chip budget %d",
			used, cfg.Dataplane.Chip.SRAMBytes)
	}
}

// TestEmptyPoolDropsMultiPipe asserts the empty-pool drop verdict holds on
// the sharded path: with every pipe's current pool emptied, packets drop
// with VerdictNoBackend on whichever pipe they shard to.
func TestEmptyPoolDropsMultiPipe(t *testing.T) {
	e, err := New(testConfig(4, 4000))
	if err != nil {
		t.Fatal(err)
	}
	vip := testVIP()
	if err := e.AddVIP(0, vip, testPool(2), 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < e.NumPipes(); i++ {
		if err := e.Dataplane(i).WritePool(vip, 0, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i, res := range batch(e, 0, framesN(t, 200, netproto.FlagSYN)) {
		if res.Verdict != dataplane.VerdictNoBackend {
			t.Fatalf("packet %d: verdict = %v, want %v", i, res.Verdict, dataplane.VerdictNoBackend)
		}
		if res.DIP.IsValid() {
			t.Fatalf("packet %d: forwarded to %v from an empty pool", i, res.DIP)
		}
	}
	if st := e.Stats(); st.Dataplane.NoBackend != 200 {
		t.Fatalf("aggregate NoBackend = %d, want 200", st.Dataplane.NoBackend)
	}
}

// TestAddVIPRollsBackOnFailure asserts a failed chip-wide AddVIP leaves no
// pipe with a half-programmed VIP.
func TestAddVIPRollsBackOnFailure(t *testing.T) {
	e, err := New(testConfig(3, 3000))
	if err != nil {
		t.Fatal(err)
	}
	vip := testVIP()
	if err := e.AddVIP(0, vip, testPool(2), 0); err != nil {
		t.Fatal(err)
	}
	// Duplicate announcement fails on every pipe; the original must stay.
	if err := e.AddVIP(0, vip, testPool(3), 0); err == nil {
		t.Fatal("duplicate AddVIP should fail")
	}
	for i := 0; i < e.NumPipes(); i++ {
		if !e.Dataplane(i).HasVIP(vip) {
			t.Fatalf("pipe %d lost the original VIP after failed re-add", i)
		}
	}
	pool, err := e.CurrentPool(vip)
	if err != nil || len(pool) != 2 {
		t.Fatalf("original pool damaged: %v, %v", pool, err)
	}
}

// TestConcurrentTrafficAndUpdates drives packets, pool updates, stats
// reads and connection terminations from concurrent goroutines — the
// sharded path must be race-clean (run under -race).
func TestConcurrentTrafficAndUpdates(t *testing.T) {
	e, err := New(testConfig(4, 20000))
	if err != nil {
		t.Fatal(err)
	}
	vip := testVIP()
	if err := e.AddVIP(0, vip, testPool(8), 0); err != nil {
		t.Fatal(err)
	}
	const workers = 4
	const perWorker = 300
	now := simtime.Time(simtime.Second)
	var shares [workers][]netproto.Frame
	for w := range shares {
		shares[w] = framesOf(t, perWorker, netproto.FlagSYN, func(i int) netproto.FiveTuple { return tupleN(w*perWorker + i) })
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, res := range batch(e, now, shares[w]) {
				if res.Verdict != dataplane.VerdictForward &&
					res.Verdict != dataplane.VerdictNoBackend {
					t.Errorf("unexpected verdict %v", res.Verdict)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		extra := netip.MustParseAddrPort("10.0.9.9:80")
		for i := 0; i < 20; i++ {
			if err := e.AddDIP(now, vip, extra); err != nil {
				t.Errorf("AddDIP: %v", err)
				return
			}
			if err := e.RemoveDIP(now, vip, extra); err != nil {
				t.Errorf("RemoveDIP: %v", err)
				return
			}
			_ = e.Stats()
			e.EndConnection(now, tupleN(i))
		}
	}()
	wg.Wait()
	e.Advance(now.Add(simtime.Duration(simtime.Second)))
	if st := e.Stats(); st.Dataplane.Packets != workers*perWorker {
		t.Fatalf("aggregate packets = %d, want %d", st.Dataplane.Packets, workers*perWorker)
	}
}
