package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/ctrlplane"
	"repro/internal/dataplane"
	"repro/internal/netproto"
	"repro/internal/pipes"
	"repro/internal/sched"
	"repro/internal/simtime"
)

// RuntimeBenchRow is one measured driving mode.
type RuntimeBenchRow struct {
	// Mode is "hand" (the caller interleaves frame batches with explicit
	// Advance calls, the pre-runtime convention) or "sched" (a wall-clock
	// scheduler driver owns background work; the packet path only pokes it).
	Mode         string  `json:"mode"`
	Packets      uint64  `json:"packets"`
	Connections  int     `json:"connections"`
	WallclockPPS float64 `json:"wallclock_pps"`
	NsPerPacket  float64 `json:"ns_per_packet"`
}

// RuntimeBenchResult is the machine-readable payload written to
// BENCH_runtime.json.
type RuntimeBenchResult struct {
	Scale float64           `json:"scale"`
	Seed  int64             `json:"seed"`
	Note  string            `json:"note"`
	Rows  []RuntimeBenchRow `json:"rows"`
	// OverheadPct is (sched ns/pkt / hand ns/pkt - 1) x 100: the packet-path
	// cost of letting the event runtime own background work. The acceptance
	// bar for the runtime refactor is <= 5%.
	OverheadPct float64 `json:"overhead_pct"`
}

const runtimeBenchNote = "overhead_pct compares ProcessFramesInto cost with background work " +
	"driven by the wall-clock scheduler driver (sched) against explicit per-batch Advance " +
	"calls (hand) on the same 4-pipe workload; both are wall-clock measurements of this " +
	"simulator on the build host and jitter with host load."

// engineSource adapts a pipes.Engine as a scheduler source the way the
// silkroad facade does: deadlines come from NextDue (background work plus
// aging), advancing runs the engine's legacy Advance path.
type engineSource struct{ eng *pipes.Engine }

func (s engineSource) NextEventTime() (simtime.Time, bool) { return s.eng.NextDue() }
func (s engineSource) Advance(now simtime.Time)            { s.eng.Advance(now) }

// runRuntimeConfig measures one driving mode over the shared workload.
func runRuntimeConfig(schedDriven bool, conns, pktsPerConn, batchSize int, seed int64) (RuntimeBenchRow, error) {
	dcfg := dataplane.DefaultConfig(200_000)
	dcfg.Seed = uint64(seed)
	eng, err := pipes.New(pipes.Config{
		Pipes:        4,
		Dataplane:    dcfg,
		Controlplane: ctrlplane.DefaultConfig(),
	})
	if err != nil {
		return RuntimeBenchRow{}, err
	}
	if err := eng.AddVIP(0, expVIP(), expPool(8), 0); err != nil {
		return RuntimeBenchRow{}, err
	}

	// Establish the connection working set and build the ACK frames outside
	// the timed region, then measure steady-state ACK batches.
	var syn, ack frameBatch
	for i := 0; i < conns; i++ {
		syn.add(expTuple(i), netproto.FlagSYN)
		ack.add(expTuple(i), netproto.FlagACK)
	}
	for off := 0; off < conns; off += batchSize {
		syn.process(eng, 0, off, min(off+batchSize, conns))
	}
	eng.Advance(simtime.Time(5 * simtime.Millisecond))
	now := simtime.Time(10 * simtime.Millisecond)

	var (
		clock  *sched.ManualClock
		driver *sched.WallDriver
		done   chan error
		cancel context.CancelFunc
	)
	if schedDriven {
		rt := sched.New()
		rt.AddSource(engineSource{eng})
		clock = sched.NewManualClock(now)
		driver = sched.NewWallDriver(clock, rt, &sync.Mutex{})
		var ctx context.Context
		ctx, cancel = context.WithCancel(context.Background())
		defer cancel()
		done = make(chan error, 1)
		go func() { done <- driver.Run(ctx) }()
	}

	pktsTotal := conns * pktsPerConn
	start := time.Now()
	for pass := 0; pass < pktsPerConn; pass++ {
		for off := 0; off < conns; off += batchSize {
			end := min(off+batchSize, conns)
			if schedDriven {
				clock.Set(now)
				ack.process(eng, now, off, end)
				driver.Poke()
			} else {
				ack.process(eng, now, off, end)
				eng.Advance(now)
			}
			now = now.Add(simtime.Duration(simtime.Microsecond))
		}
	}
	elapsed := time.Since(start).Seconds()

	if schedDriven {
		cancel()
		if err := <-done; err != nil {
			return RuntimeBenchRow{}, err
		}
	} else {
		eng.Advance(now)
	}

	st := eng.Stats()
	row := RuntimeBenchRow{
		Mode:        "hand",
		Packets:     st.Dataplane.Packets,
		Connections: st.Connections,
	}
	if schedDriven {
		row.Mode = "sched"
	}
	if elapsed > 0 && pktsTotal > 0 {
		row.WallclockPPS = float64(pktsTotal) / elapsed
		row.NsPerPacket = elapsed * 1e9 / float64(pktsTotal)
	}
	return row, nil
}

// RuntimeBench measures the packet-path overhead of the unified event
// runtime: the same steady-state batch workload with background work
// driven by hand versus by the wall-clock scheduler driver. The report
// carries a BENCH_runtime.json artifact.
func RuntimeBench(scale float64, seed int64) (*Report, error) {
	conns := int(20_000 * scale)
	if conns < 1000 {
		conns = 1000
	}
	const pktsPerConn = 5
	const batchSize = 256

	result := RuntimeBenchResult{Scale: scale, Seed: seed, Note: runtimeBenchNote}
	for _, schedDriven := range []bool{false, true} {
		row, err := runRuntimeConfig(schedDriven, conns, pktsPerConn, batchSize, seed)
		if err != nil {
			return nil, err
		}
		result.Rows = append(result.Rows, row)
	}
	hand, schd := result.Rows[0], result.Rows[1]
	if hand.NsPerPacket > 0 {
		result.OverheadPct = (schd.NsPerPacket/hand.NsPerPacket - 1) * 100
	}

	rep := &Report{ID: "runtime", Title: "Event-runtime overhead: scheduler-driven vs hand-driven frame batches"}
	rep.Printf("%-6s %12s %12s %14s %14s", "mode", "packets", "conns", "wallclock pps", "ns/packet")
	for _, r := range result.Rows {
		rep.Printf("%-6s %12d %12d %14.3g %14.1f", r.Mode, r.Packets, r.Connections, r.WallclockPPS, r.NsPerPacket)
	}
	rep.Printf("scheduler overhead %+.1f%% (wall-clock on this host — informational; bar is <= 5%%)", result.OverheadPct)

	art, err := json.MarshalIndent(result, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("runtime bench: %w", err)
	}
	rep.ArtifactName = "BENCH_runtime.json"
	rep.Artifact = append(art, '\n')
	return rep, nil
}
