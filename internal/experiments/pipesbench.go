package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/ctrlplane"
	"repro/internal/dataplane"
	"repro/internal/netproto"
	"repro/internal/pipes"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// perPipePacketRate is the line rate of one forwarding pipeline in packets
// per second. A Tofino-class pipe forwards minimum-size packets at about
// 1 Bpps (roughly 1.6 Tb/s per pipe at 200 B average frames); the exact
// constant cancels out of the speedup ratio.
const perPipePacketRate = 1e9

// PipesBenchConfig is the measured outcome for one pipe count.
type PipesBenchConfig struct {
	Pipes       int      `json:"pipes"`
	Packets     uint64   `json:"packets"`
	PipePackets []uint64 `json:"pipe_packets"`
	Connections int      `json:"connections"`
	// ModeledPPS is the chip's aggregate forwarding rate under the ASIC
	// model: each pipe drains its shard at the per-pipe line rate, so the
	// chip finishes when its most-loaded pipe does.
	ModeledPPS float64 `json:"modeled_pps"`
	// WallclockPPS is established-traffic packets per wall-clock second of
	// this simulation run on the build host, swept through the batch path
	// (ProcessFramesInto). Connections are primed and drained before the
	// timer starts, and the frames are marshaled and parsed once up front
	// (the tunnel parses each packet exactly once on receive), so the
	// figure is the steady-state table path, not a mix of handshakes,
	// table churn and parsing.
	WallclockPPS float64 `json:"wallclock_pps"`
	// PerFramePPS is the same measurement with each frame submitted alone
	// through Engine.ProcessFrame: one pipe lock and one control-plane
	// Advance per frame instead of per shard.
	PerFramePPS float64 `json:"per_frame_pps"`
}

// PipesTrendPoint is one recorded run of the benchmark: the wallclock
// trajectory BENCH_pipes.json accumulates so regressions in the multi-pipe
// hot path show up as a ratio drop between consecutive points at the same
// scale.
type PipesTrendPoint struct {
	When            string  `json:"when"` // RFC 3339, build-host clock
	Scale           float64 `json:"scale"`
	OnePipePPS      float64 `json:"one_pipe_pps"`
	FourPipePPS     float64 `json:"four_pipe_pps"`
	WallclockSpeedX float64 `json:"wallclock_speedup"`
	// FourPipePerFramePPS and BatchVsPerFrameX record the per-frame entry
	// at 4 pipes: its absolute rate and the batch path's ratio to it on the
	// same run (the in-run gate's series). Zero on points recorded before
	// the batch path was frames only.
	FourPipePerFramePPS float64 `json:"four_pipe_per_frame_pps,omitempty"`
	BatchVsPerFrameX    float64 `json:"batch_vs_per_frame,omitempty"`
	// FourPipeFramesPPS and FramesVsStructX are kept so older points keep
	// their fields: until the struct batch path was removed, one_pipe_pps
	// and four_pipe_pps measured struct batches, and these recorded the
	// frame batch rate at 4 pipes and its ratio to the struct rate.
	FourPipeFramesPPS float64 `json:"four_pipe_frames_pps,omitempty"`
	FramesVsStructX   float64 `json:"frames_vs_struct,omitempty"`
}

// maxTrajectory bounds how many trend points the artifact keeps (oldest
// dropped first).
const maxTrajectory = 50

// PipesBenchResult is the machine-readable payload written to
// BENCH_pipes.json.
type PipesBenchResult struct {
	Scale           float64            `json:"scale"`
	Seed            int64              `json:"seed"`
	Note            string             `json:"note"`
	Configs         []PipesBenchConfig `json:"configs"`
	ModeledSpeedup  float64            `json:"modeled_speedup"`
	WallclockSpeedX float64            `json:"wallclock_speedup"`
	// BatchVsPerFrameX is batch-path wallclock pps over per-frame wallclock
	// pps at 4 pipes for this run, over the same resident connections. The
	// batch path takes each pipe lock and advances each control plane once
	// per shard rather than once per frame, so this is expected to sit
	// above 1.0; GatePipes fails a run where it falls below 0.9.
	BatchVsPerFrameX float64 `json:"batch_vs_per_frame"`
	// Trajectory carries this run's point appended to the points recorded
	// by previous runs (read back from the existing artifact, if any).
	Trajectory []PipesTrendPoint `json:"trajectory,omitempty"`
}

const pipesBenchNote = "modeled_pps is the aggregate throughput under the ASIC model: each pipe " +
	"forwards its shard at the per-pipe line rate (1e9 pps), so the chip-level rate is " +
	"total_packets / max_pipe_packets x line rate. wallclock_pps measures this simulator's " +
	"steady-state batch path (pre-parsed frames through ProcessFramesInto) on the build host " +
	"(established traffic only; priming, drains and parsing untimed); per_frame_pps is the " +
	"same measurement with one Engine.ProcessFrame call per frame. wallclock_speedup = " +
	"4-pipe pps / 1-pipe pps and batch_vs_per_frame = 4-pipe batch pps / per-frame pps are " +
	"the gated headlines; the trajectory records both per run so CI can fail on a ratio " +
	"regression. Points before batch_vs_per_frame existed measured struct batches."

// pipesMetrics is the METRICS_pipes.json payload: one telemetry snapshot
// per benchmarked pipe count, taken at end of run in virtual time.
type pipesMetrics struct {
	Note    string `json:"note"`
	Configs []struct {
		Pipes     int                `json:"pipes"`
		Telemetry telemetry.Snapshot `json:"telemetry"`
	} `json:"configs"`
}

const pipesMetricsNote = "end-of-run telemetry snapshots per pipe count; " +
	"histogram sums are in seconds of virtual time (e.g. the pending window " +
	"silkroad_insert_pending_window_seconds)."

// runPipesConfig drives one engine through the benchmark workload and
// returns its measured row, plus an end-of-run telemetry snapshot when
// CollectTelemetry is on (nil otherwise, keeping the hot path untraced).
//
// The workload has three phases: an untimed priming phase that opens every
// connection with SYN batches, an untimed drain that lets each pipe's CPU
// flush its learning filter and insertion queue, and the timed measurement
// phase — measurePasses ACK-only sweeps over the whole connection set,
// first frame by frame through Engine.ProcessFrame, then in batches through
// ProcessFramesInto with a reused results buffer. The timed regions are
// therefore the steady-state packet path: hits in the ConnTable, no
// learns, no allocation.
func runPipesConfig(nPipes, conns, measurePasses, batchSize int, seed int64) (PipesBenchConfig, *telemetry.Snapshot, error) {
	tableTarget := 200_000
	if conns*2 > tableTarget {
		tableTarget = conns * 2 // keep every primed connection resident
	}
	dcfg := dataplane.DefaultConfig(tableTarget)
	dcfg.Seed = uint64(seed)
	pcfg := pipes.Config{
		Pipes:        nPipes,
		Dataplane:    dcfg,
		Controlplane: ctrlplane.DefaultConfig(),
	}
	var reg *telemetry.Registry
	if CollectTelemetry {
		reg = telemetry.NewRegistry()
		pcfg.Tracer = reg
	}
	eng, err := pipes.New(pcfg)
	if err != nil {
		return PipesBenchConfig{}, nil, err
	}
	defer eng.Close()
	if err := eng.AddVIP(0, expVIP(), expPool(8), 0); err != nil {
		return PipesBenchConfig{}, nil, err
	}

	// Frames are marshaled and parsed outside every timed region, so the
	// measurement loops only reuse them (address formatting and parsing
	// never pollute the wallclock figure).
	var syn, ack frameBatch
	for i := 0; i < conns; i++ {
		syn.add(expTuple(i), netproto.FlagSYN)
		ack.add(expTuple(i), netproto.FlagACK)
	}
	now := simtime.Time(0)

	// Prime: open every connection. A millisecond of virtual time per batch
	// keeps the learning filters flushing while the CPUs insert.
	for off := 0; off < conns; off += batchSize {
		syn.process(eng, now, off, min(off+batchSize, conns))
		now = now.Add(simtime.Duration(simtime.Millisecond))
		eng.Advance(now)
	}
	// Drain: let every pending insertion land so the measured passes run
	// against a fully populated ConnTable.
	now = now.Add(simtime.Duration(10 * simtime.Second))
	eng.Advance(now)

	// Measure: established traffic only, the same connections swept per
	// frame and then in batches — both pure ConnTable hits on the same
	// switch state. Each sweep is repeated in three independently timed
	// repetitions and the fastest one is reported: interference on a
	// shared build host only ever slows a repetition down, so the max-rate
	// repetition is the closest to the code's true cost and the most
	// stable series for the gate to compare.
	timed := func(sweep func(lo, hi int)) float64 {
		const measureReps = 3
		var best float64
		for rep := 0; rep < measureReps; rep++ {
			before := eng.Stats().Dataplane.Packets
			start := time.Now()
			for pass := 0; pass < measurePasses; pass++ {
				for off := 0; off < conns; off += batchSize {
					sweep(off, min(off+batchSize, conns))
					now = now.Add(simtime.Duration(simtime.Microsecond))
					eng.Advance(now)
				}
			}
			elapsed := time.Since(start).Seconds()
			if done := eng.Stats().Dataplane.Packets - before; elapsed > 0 && done > 0 {
				best = max(best, float64(done)/elapsed)
			}
		}
		return best
	}
	perFramePPS := timed(func(lo, hi int) {
		for i := lo; i < hi; i++ {
			eng.ProcessFrame(now, &ack.frames[i])
		}
	})
	batchPPS := timed(func(lo, hi int) { ack.process(eng, now, lo, hi) })
	st := eng.Stats()

	var maxPipe uint64
	for _, n := range st.PipePackets {
		if n > maxPipe {
			maxPipe = n
		}
	}
	row := PipesBenchConfig{
		Pipes:       nPipes,
		Packets:     st.Dataplane.Packets,
		PipePackets: st.PipePackets,
		Connections: st.Connections,
	}
	if maxPipe > 0 {
		row.ModeledPPS = float64(st.Dataplane.Packets) / float64(maxPipe) * perPipePacketRate
	}
	row.WallclockPPS = batchPPS
	row.PerFramePPS = perFramePPS
	var snap *telemetry.Snapshot
	if reg != nil {
		s := reg.Snapshot(now)
		snap = &s
	}
	return row, snap, nil
}

// pipesArtifactName is where silkroad-bench writes the benchmark payload;
// PipesBench also reads it back (from the working directory) to extend the
// recorded wallclock trajectory.
const pipesArtifactName = "BENCH_pipes.json"

// priorTrajectory loads the trend points recorded by previous runs. A
// missing or unreadable artifact yields no history — the benchmark still
// runs, it just starts a fresh trajectory. Artifacts written before the
// trajectory existed contribute their headline ratio as a synthetic point,
// so the first trajectory-aware run still has a comparison baseline.
func priorTrajectory() []PipesTrendPoint {
	raw, err := os.ReadFile(pipesArtifactName)
	if err != nil {
		return nil
	}
	var prior PipesBenchResult
	if err := json.Unmarshal(raw, &prior); err != nil {
		return nil
	}
	if len(prior.Trajectory) == 0 && prior.WallclockSpeedX > 0 {
		pt := PipesTrendPoint{When: "(pre-trajectory artifact)", Scale: prior.Scale, WallclockSpeedX: prior.WallclockSpeedX}
		for _, c := range prior.Configs {
			switch c.Pipes {
			case 1:
				pt.OnePipePPS = c.WallclockPPS
			case 4:
				pt.FourPipePPS = c.WallclockPPS
			}
		}
		return []PipesTrendPoint{pt}
	}
	return prior.Trajectory
}

// GatePipes is the perf gate over the recorded trajectory: it fails when
// this run's 4-pipe vs 1-pipe wallclock speedup regressed by more than 30%
// against the most recent previous point at the same scale. Comparing the
// ratio rather than raw pps keeps the gate stable across build hosts of
// different speeds; comparing at equal scale keeps it honest across
// workload sizes. With no comparable history the gate passes.
//
// It also gates the batch path within the run itself: batch wallclock pps
// at 4 pipes must stay at or above 90% of per-frame pps (the two sweeps
// cover the same resident connections, so the ratio is host-independent;
// the 10% band absorbs timer jitter). Points recorded before the ratio
// existed (zero) are exempt.
func GatePipes(res PipesBenchResult) error {
	n := len(res.Trajectory)
	if n == 0 {
		return nil
	}
	cur := res.Trajectory[n-1]
	if cur.BatchVsPerFrameX > 0 && cur.BatchVsPerFrameX < 0.9 {
		return fmt.Errorf("pipes perf gate: batch wallclock is %.2fx of per-frame at 4 pipes, floor is 0.90x",
			cur.BatchVsPerFrameX)
	}
	for i := n - 2; i >= 0; i-- {
		prev := res.Trajectory[i]
		if prev.Scale != cur.Scale || prev.WallclockSpeedX <= 0 {
			continue
		}
		if cur.WallclockSpeedX < 0.7*prev.WallclockSpeedX {
			return fmt.Errorf("pipes perf gate: wallclock speedup %.2fx is down more than 30%% from %.2fx (recorded %s at scale %g)",
				cur.WallclockSpeedX, prev.WallclockSpeedX, prev.When, prev.Scale)
		}
		return nil
	}
	return nil
}

// PipesBench measures aggregate throughput of a single-pipe chip against a
// 4-pipe chip on the same workload. The report carries a BENCH_pipes.json
// artifact whose trajectory section accumulates the wallclock speedup of
// every run (the series GatePipes checks).
func PipesBench(scale float64, seed int64) (*Report, error) {
	conns := int(20_000 * scale)
	if conns < 1000 {
		conns = 1000
	}
	const batchSize = 512
	// Floor the timed work at ~200K packets regardless of scale: at small
	// scales three sweeps over a 1000-connection set finish in well under a
	// millisecond, and timer jitter alone can swing the speedup ratio past
	// the gate's 30% band. More passes over the same established set change
	// only measurement duration, never behaviour.
	measurePasses := 3
	if conns*measurePasses < 200_000 {
		measurePasses = (200_000 + conns - 1) / conns
	}

	result := PipesBenchResult{Scale: scale, Seed: seed, Note: pipesBenchNote}
	metrics := pipesMetrics{Note: pipesMetricsNote}
	for _, n := range []int{1, 4} {
		row, snap, err := runPipesConfig(n, conns, measurePasses, batchSize, seed)
		if err != nil {
			return nil, err
		}
		result.Configs = append(result.Configs, row)
		if snap != nil {
			metrics.Configs = append(metrics.Configs, struct {
				Pipes     int                `json:"pipes"`
				Telemetry telemetry.Snapshot `json:"telemetry"`
			}{Pipes: n, Telemetry: *snap})
		}
	}
	one, four := result.Configs[0], result.Configs[1]
	if one.ModeledPPS > 0 {
		result.ModeledSpeedup = four.ModeledPPS / one.ModeledPPS
	}
	if one.WallclockPPS > 0 {
		result.WallclockSpeedX = four.WallclockPPS / one.WallclockPPS
	}
	if four.PerFramePPS > 0 {
		result.BatchVsPerFrameX = four.WallclockPPS / four.PerFramePPS
	}
	result.Trajectory = append(priorTrajectory(), PipesTrendPoint{
		When:                time.Now().UTC().Format(time.RFC3339),
		Scale:               scale,
		OnePipePPS:          one.WallclockPPS,
		FourPipePPS:         four.WallclockPPS,
		WallclockSpeedX:     result.WallclockSpeedX,
		FourPipePerFramePPS: four.PerFramePPS,
		BatchVsPerFrameX:    result.BatchVsPerFrameX,
	})
	if len(result.Trajectory) > maxTrajectory {
		result.Trajectory = result.Trajectory[len(result.Trajectory)-maxTrajectory:]
	}

	rep := &Report{ID: "pipes", Title: "Multi-pipe aggregate throughput (1 vs 4 pipes)"}
	rep.Printf("%-7s %12s %14s %16s %14s  %s", "pipes", "packets", "modeled pps", "wallclock pps", "per-frame pps", "per-pipe packets")
	for _, c := range result.Configs {
		rep.Printf("%-7d %12d %14.3g %16.3g %14.3g  %v", c.Pipes, c.Packets, c.ModeledPPS, c.WallclockPPS, c.PerFramePPS, c.PipePackets)
	}
	rep.Printf("modeled speedup  %.2fx (line-rate model; shard balance bound)", result.ModeledSpeedup)
	rep.Printf("wallclock speedup %.2fx (steady-state batch path on this host — gated)", result.WallclockSpeedX)
	rep.Printf("batch vs per-frame %.2fx at 4 pipes (gated, floor 0.90x)", result.BatchVsPerFrameX)
	for _, pt := range result.Trajectory {
		rep.Printf("trajectory %-28s scale %-6g 1-pipe %10.3g  4-pipe %10.3g  speedup %.2fx  batch/per-frame %.2fx  frames/struct %.2fx",
			pt.When, pt.Scale, pt.OnePipePPS, pt.FourPipePPS, pt.WallclockSpeedX, pt.BatchVsPerFrameX, pt.FramesVsStructX)
	}

	art, err := json.MarshalIndent(result, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("pipes bench: %w", err)
	}
	rep.ArtifactName = pipesArtifactName
	rep.Artifact = append(art, '\n')
	if len(metrics.Configs) > 0 {
		m, err := json.MarshalIndent(metrics, "", "  ")
		if err != nil {
			return nil, fmt.Errorf("pipes bench metrics: %w", err)
		}
		rep.MetricsName = "METRICS_pipes.json"
		rep.Metrics = append(m, '\n')
	}
	return rep, nil
}
