package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/netip"
	"os"
	"strings"
	"testing"

	silkroad "repro"
)

// TestMain lets the test binary serve as the wire workload's tunnel
// process, as the perfbench binary does.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(tunnelEnv); ok {
		os.Exit(serveTunnel(args, os.Stdin, os.Stdout))
	}
	os.Exit(m.Run())
}

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// runSmoke runs one smoke-sized workload and returns its output lines and
// the decoded result line.
func runSmoke(t *testing.T, workload, trace string) ([]string, result) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", workload, "--seed", "7", "--smoke", "--trace", trace}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%v: exit %d: %s", args, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if !res.Correct {
		t.Fatalf("%v: output checks failed: %s", args, stderr.String())
	}
	if res.Attempted < 1 || res.Failed > uint64(res.Attempted) {
		t.Fatalf("attempted=%d failed=%d", res.Attempted, res.Failed)
	}
	return lines, res
}

func countsLine(t *testing.T, lines []string) string {
	t.Helper()
	for _, l := range lines {
		if _, c, ok := strings.Cut(l, " counts: "); ok {
			return c
		}
	}
	t.Fatal("no counts line")
	return ""
}

// TestWorkloads runs every workload of BENCHMARK.json untraced and traced:
// each prints exactly the metrics BENCHMARK.json names, with their units,
// passes its output checks, and reproduces the same counts in both runs.
func TestWorkloads(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.Workloads) == 0 {
		t.Fatal("no workloads")
	}
	for _, w := range b.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			untraced, res0 := runSmoke(t, w.Name, "0")
			checkMetrics(t, res0.Metrics, b.EndToEnd, true)
			traced, res1 := runSmoke(t, w.Name, "1")
			checkMetrics(t, res1.Metrics, b.PerLayer, false)
			if c0, c1 := countsLine(t, untraced), countsLine(t, traced); c0 != c1 {
				t.Errorf("counts differ between untraced and traced runs:\n%s\n%s", c0, c1)
			}
		})
	}
}

func checkMetrics(t *testing.T, got metrics, want []struct{ Name, Unit string }, positive bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%d metrics printed, BENCHMARK.json names %d", len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not printed", w.Name)
		case m.Unit != w.Unit:
			t.Errorf("metric %s in %q, want %q", w.Name, m.Unit, w.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0 || (positive && m.Value == 0):
			t.Errorf("metric %s = %v", w.Name, m.Value)
		}
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--smoke"},
		{"--workload", "churn", "--trace", "2"},
		{"--workload", "churn", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

// TestOracle checks that the PCC shadow flags a connection moving to a
// second DIP, allows the move once the first DIP left the pool, and
// rejects DIPs outside the VIP's pool history.
func TestOracle(t *testing.T) {
	o := newOracle(4, 2, 3, [2]byte{172, 16}, 8080)
	fwd := func(c, v, d int) bool { a := o.dip(v, d); return o.forwarded(c, a.Addr(), a.Port()) }
	if !fwd(0, 0, 1) || !fwd(0, 0, 1) {
		t.Fatal("a connection staying on its DIP failed")
	}
	if fwd(0, 0, 2) || o.pcc != 1 {
		t.Fatalf("moving to a second DIP: pcc=%d, want 1", o.pcc)
	}
	if !fwd(2, 0, 0) {
		t.Fatal("first packet of connection 2 failed")
	}
	o.removed(0, 0)
	if !fwd(2, 0, 2) || o.pcc != 1 {
		t.Fatalf("moving off a removed DIP: pcc=%d, want 1", o.pcc)
	}
	if fwd(1, 0, 0) || o.stray != 1 {
		t.Fatalf("connection 1 belongs to VIP 1; VIP 0's DIP must be stray (stray=%d)", o.stray)
	}
	if o.forwarded(3, netip.MustParseAddr("172.16.1.4"), 8080) || o.stray != 2 {
		t.Fatalf("a DIP outside the pool must be stray (stray=%d)", o.stray)
	}
}

// TestCheckRewrite checks that a correct rewrite passes and that a wrong
// destination or a broken checksum is caught.
func TestCheckRewrite(t *testing.T) {
	dip := netip.MustParseAddrPort("172.16.0.1:8080")
	build := func() *silkroad.Frame {
		p := silkroad.Packet{Tuple: connTuple(9, 5, vipAddr(0)), TCPFlags: silkroad.FlagACK, Payload: make([]byte, 100)}
		raw, err := p.Marshal(nil)
		if err != nil {
			t.Fatal(err)
		}
		var f silkroad.Frame
		if err := silkroad.ParseFrame(raw, &f); err != nil {
			t.Fatal(err)
		}
		if err := f.RewriteDst(dip); err != nil {
			t.Fatal(err)
		}
		return &f
	}
	if f := build(); !checkRewrite(f, dip) {
		t.Fatal("a correct rewrite failed the check")
	}
	if f := build(); checkRewrite(f, netip.MustParseAddrPort("172.16.0.2:8080")) {
		t.Fatal("a rewrite to another DIP passed the check")
	}
	f := build()
	f.Data[len(f.Data)-1] ^= 0xff
	if checkRewrite(f, dip) {
		t.Fatal("a corrupted payload passed the TCP checksum check")
	}
}
