package experiments

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestPipesBenchShape asserts the multi-pipe acceptance claim: a 4-pipe
// chip's modeled aggregate throughput is at least 2x a single pipe's on
// the same workload, bounded only by shard balance, and the JSON artifact
// round-trips.
func TestPipesBenchShape(t *testing.T) {
	rep, err := PipesBench(testScale, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ArtifactName != "BENCH_pipes.json" || len(rep.Artifact) == 0 {
		t.Fatalf("missing artifact: %q (%d bytes)", rep.ArtifactName, len(rep.Artifact))
	}
	var res PipesBenchResult
	if err := json.Unmarshal(rep.Artifact, &res); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if len(res.Configs) != 2 || res.Configs[0].Pipes != 1 || res.Configs[1].Pipes != 4 {
		t.Fatalf("configs = %+v, want pipes 1 and 4", res.Configs)
	}
	one, four := res.Configs[0], res.Configs[1]
	if one.Packets != four.Packets || one.Packets == 0 {
		t.Fatalf("workloads differ: %d vs %d packets", one.Packets, four.Packets)
	}
	if res.ModeledSpeedup < 2 {
		t.Fatalf("modeled speedup = %.2fx, want >= 2x", res.ModeledSpeedup)
	}
	// The shard must actually spread: every pipe sees traffic, none more
	// than half of it.
	if len(four.PipePackets) != 4 {
		t.Fatalf("pipe_packets = %v", four.PipePackets)
	}
	for i, n := range four.PipePackets {
		if n == 0 || n > four.Packets/2 {
			t.Fatalf("pipe %d carries %d of %d packets — shard skewed", i, n, four.Packets)
		}
	}
	if one.Connections != four.Connections || one.Connections == 0 {
		t.Fatalf("tracked connections differ: %d vs %d", one.Connections, four.Connections)
	}
}

// TestGatePipes pins the perf-gate policy: >30% ratio regression against
// the latest same-scale point fails, anything else — improvements,
// different scales, missing history — passes.
func TestGatePipes(t *testing.T) {
	mk := func(pts ...PipesTrendPoint) PipesBenchResult {
		return PipesBenchResult{Trajectory: pts}
	}
	pt := func(scale, speedup float64) PipesTrendPoint {
		return PipesTrendPoint{When: "test", Scale: scale, WallclockSpeedX: speedup}
	}
	if err := GatePipes(mk()); err != nil {
		t.Fatalf("empty trajectory: %v", err)
	}
	if err := GatePipes(mk(pt(1, 2.0))); err != nil {
		t.Fatalf("first recorded run: %v", err)
	}
	if err := GatePipes(mk(pt(1, 2.0), pt(1, 1.5))); err != nil {
		t.Fatalf("25%% drop must pass: %v", err)
	}
	if err := GatePipes(mk(pt(1, 2.0), pt(1, 1.3))); err == nil {
		t.Fatal("35% drop must fail the gate")
	}
	if err := GatePipes(mk(pt(1, 2.0), pt(0.05, 0.5))); err != nil {
		t.Fatalf("different scale has no baseline, must pass: %v", err)
	}
	// The comparison picks the latest point at the matching scale, skipping
	// interleaved runs at other scales.
	if err := GatePipes(mk(pt(0.05, 1.0), pt(1, 2.0), pt(0.05, 1.1))); err != nil {
		t.Fatalf("same-scale comparison across interleaved scales: %v", err)
	}
	// 2.0 against a 3.0 baseline is a 33% drop: the gate must fail even
	// with a different-scale run recorded in between.
	if err := GatePipes(mk(pt(1, 3.0), pt(0.05, 1.0), pt(1, 2.0))); err == nil {
		t.Fatal("33% drop across interleaved scales must fail the gate")
	}

	// The batch gate is in-run: batch pps below 90% of per-frame pps at 4
	// pipes fails regardless of history; at or above the floor passes;
	// points recorded before the ratio existed (0) are exempt.
	ptb := func(ratio float64) PipesTrendPoint {
		return PipesTrendPoint{When: "test", Scale: 1, WallclockSpeedX: 2.0, BatchVsPerFrameX: ratio}
	}
	if err := GatePipes(mk(ptb(1.05))); err != nil {
		t.Fatalf("batch ahead of per-frame must pass: %v", err)
	}
	if err := GatePipes(mk(ptb(0.93))); err != nil {
		t.Fatalf("batch within the 10%% band must pass: %v", err)
	}
	if err := GatePipes(mk(ptb(0.8))); err == nil {
		t.Fatal("batch at 0.8x of per-frame must fail the gate")
	}
	if err := GatePipes(mk(ptb(0))); err != nil {
		t.Fatalf("point without the ratio must pass: %v", err)
	}
	// A struct-era point's frames_vs_struct is history, not a gate: only
	// the current run's batch ratio counts.
	legacy := PipesTrendPoint{When: "test", Scale: 1, WallclockSpeedX: 2.0, FramesVsStructX: 0.5}
	if err := GatePipes(mk(legacy, ptb(1.1))); err != nil {
		t.Fatalf("legacy frames_vs_struct on an older point must not gate: %v", err)
	}
}

// TestPipesTrajectoryKeepsLegacyFields pins that a point recorded while
// the struct batch path existed keeps every field when a later run reads
// the trajectory back and re-emits it.
func TestPipesTrajectoryKeepsLegacyFields(t *testing.T) {
	const old = `{"when":"2026-08-08T19:00:37Z","scale":1,"one_pipe_pps":4630805.875760989,` +
		`"four_pipe_pps":9822092.439640786,"wallclock_speedup":2.1210330778607087,` +
		`"four_pipe_frames_pps":11315946.080422202,"frames_vs_struct":1.152091181177689}`
	var pt PipesTrendPoint
	if err := json.Unmarshal([]byte(old), &pt); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(pt)
	if err != nil {
		t.Fatal(err)
	}
	var want, got map[string]any
	if err := json.Unmarshal([]byte(old), &want); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(out, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("re-emitted point differs:\n got %s\nwant %s", out, old)
	}
}
