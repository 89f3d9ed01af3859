// Command perfbench is the repository's benchmark. It drives the switch
// from outside, through the public functions of each module, on three
// seeded workloads (see README.md for why each exists):
//
//	established  in process, 64 VIPs, a ConnTable-hit sweep
//	churn        in process, 4 VIPs, new and retired connections, IMIX
//	             payloads and pool updates
//	wire         a real Tunnel on loopback sockets, open then closed loop
//
// Usage:
//
//	perfbench --workload established --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured untraced; with
// --trace 1 it prints the per-layer metrics of a traced run, with the
// tracing overhead. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. --smoke shrinks every
// workload so that a run takes seconds.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"time"
)

// rep is one set-up plus one timed phase on a fresh switch.
type rep struct {
	setup       time.Duration
	heapPerConn float64

	offered    int64  // packets offered in the timed phase
	failed     uint64 // of those, not delivered to a correct DIP
	pcc        uint64
	outputErrs uint64 // outputs wrong whatever the switch state

	ppsPackets int64         // packets pps counts ...
	busy       time.Duration // ... over this time
	batchNs    []int64
	fwdNs      []int64
	cpu        usage
	cpuPackets int64 // packets cpu_us_per_pkt divides by

	counts string  // every count of the timed phase, for the determinism check
	layer  metrics // per-layer figures
}

// endToEnd and perLayer name every metric with its unit, in print order.
var endToEnd = [][2]string{
	{"setup_s", "s"},
	{"pps", "pkt/s"},
	{"cpu_us_per_pkt", "us"},
	{"heap_bytes_per_conn", "B"},
}

var perLayer = [][2]string{
	{"ctrlplane.advance_ns", "ns"},
	{"dataplane.process_ns", "ns"},
	{"netproto.parse_ns", "ns"},
	{"netproto.rewrite_ns", "ns"},
	{"ctrlplane.handle_ns", "ns"},
	{"ctrlplane.learn_useful_ratio", "ratio"},
	{"ctrlplane.insert_queue_max", "count"},
	{"ctrlplane.insert_retries", "count"},
	{"ctrlplane.insert_sheds", "count"},
	{"ctrlplane.insert_delay_mean_us", "us"},
	{"ctrlplane.updates_completed_ratio", "ratio"},
	{"cuckoo.digest_fps_resolved", "count"},
	{"bloom.fps_resolved", "count"},
	{"dataplane.transit_hits", "count"},
	{"dataplane.conn_hit_ratio", "ratio"},
	{"dataplane.slowpath_share", "ratio"},
	{"learnfilter.pending_max", "count"},
	{"cuckoo.occupancy", "ratio"},
	{"silkroad.allocs_per_pkt", "count"},
	{"tunnel.sys_us_per_pkt", "us"},
	{"tunnel.user_us_per_pkt", "us"},
	{"tunnel.ctx_switches_per_pkt", "count"},
	{"tunnel.dropped", "count"},
	{"tunnel.undecodable", "count"},
	{"tunnel.tx_errors", "count"},
	{"gen.late_p99_us", "us"},
	{"gen.late_max_ms", "ms"},
	{"gen.ns_per_pkt", "ns"},
	{"trace.clock_ns", "ns"},
	{"trace.overhead_ratio", "ratio"},
	{"pcc_violations", "count"},
	{"fail_ratio", "fraction"},
	{"batch_p50_us", "us"},
	{"batch_p99_us", "us"},
	{"fwd_p50_us", "us"},
	{"fwd_p99_us", "us"},
}

// reps is how many fresh switches an untraced run sets up and measures;
// setup_s is their median and the other figures pool their samples.
const reps = 3

// Work per rep follows from --seconds alone, never from elapsed time, so
// every count repeats exactly at a given seed. The rates are what the
// workloads sustain on a 2-CPU host, so a run measures about --seconds.
const (
	nominalPPS     = 500_000 // in process
	nominalWindows = 1_500   // wire, phase 2 windows per second
)

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	smoke    bool
}

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    uint64  `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	if args, ok := os.LookupEnv(tunnelEnv); ok {
		os.Exit(serveTunnel(args, os.Stdin, os.Stdout))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	fs.StringVar(&c.workload, "workload", "", "established, churn or wire")
	fs.Uint64Var(&c.seed, "seed", 1, "seed the workload's inputs are drawn from")
	fs.IntVar(&c.seconds, "seconds", 10, "measuring time the work is sized for (1..60)")
	fs.IntVar(&c.trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics of a traced run")
	fs.BoolVar(&c.smoke, "smoke", false, "tiny sizes: every workload runs in seconds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if c.seconds < 1 || c.seconds > 60 || (c.trace != 0 && c.trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be 1..60 and --trace 0 or 1")
		return 2
	}
	res, err := bench(c, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", c.workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runner returns the function that runs one rep of the workload.
func runner(c config) (func(traced bool) (*rep, error), error) {
	perRep := func(total int) int { return max(1, total/reps) }
	switch c.workload {
	case "established", "churn":
		s := inprocSpec{vips: 64, dips: 8, conns: 262_144, batches: perRep(c.seconds * nominalPPS / batchSize)}
		if c.workload == "churn" {
			s.vips, s.conns, s.churn = 4, 65_536, true
		}
		if c.smoke {
			s.conns, s.batches = s.conns/64, 200
		}
		return func(traced bool) (*rep, error) { return runInproc(s, c.seed, traced) }, nil
	case "wire":
		// Half the time open loop, half closed loop.
		s := wireSpec{vips: 64, dips: 8, conns: 16_384,
			ticks:   perRep(c.seconds * 1000 / 2),
			windows: perRep(c.seconds * nominalWindows / 2)}
		if c.smoke {
			s.conns, s.ticks, s.windows = 512, 100, 50
		}
		return func(traced bool) (*rep, error) { return runWire(s, c.seed, traced) }, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want established, churn or wire)", c.workload)
}

// bench runs the workload and assembles the result. An untraced run
// measures reps fresh switches; a traced run measures one untraced and one
// traced. Either way every rep must reproduce the same counts.
func bench(c config, stdout, stderr io.Writer) (*result, error) {
	one, err := runner(c)
	if err != nil {
		return nil, err
	}
	n := reps
	if c.trace == 1 {
		n = 2
	}
	var rs []*rep
	for i := 0; i < n; i++ {
		r, err := one(c.trace == 1 && i == 1)
		if err != nil {
			return nil, err
		}
		rs = append(rs, r)
	}
	res := &result{Correct: true, Metrics: metrics{}}
	for i, r := range rs {
		res.Attempted += r.offered
		res.Failed += r.failed
		if r.outputErrs != 0 {
			res.Correct = false
			fmt.Fprintf(stderr, "perfbench: rep %d: %d wrong outputs\n", i, r.outputErrs)
		}
		if r.counts != rs[0].counts {
			res.Correct = false
			fmt.Fprintf(stderr, "perfbench: rep %d counts differ from rep 0:\n  %s\n  %s\n", i, r.counts, rs[0].counts)
		}
	}
	if c.trace == 0 {
		endToEndMetrics(res.Metrics, rs)
	} else {
		perLayerMetrics(res.Metrics, rs[0], rs[1])
	}
	fmt.Fprintf(stdout, "%s seed=%d: attempted=%d failed=%d fail_ratio=%.3g pcc_violations=%d\n",
		c.workload, c.seed, res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)), rs[0].pcc)
	fmt.Fprintf(stdout, "%s seed=%d counts: %s\n", c.workload, c.seed, rs[0].counts)
	names := endToEnd
	if c.trace == 1 {
		names = perLayer
	}
	for _, n := range names {
		m, ok := res.Metrics[n[0]]
		if !ok || m.Unit != n[1] {
			return nil, fmt.Errorf("metric %s missing or not in %s", n[0], n[1])
		}
		fmt.Fprintf(stdout, "  %-36s %14.6g %s\n", n[0], m.Value, m.Unit)
	}
	if len(res.Metrics) != len(names) {
		return nil, errors.New("unexpected extra metrics")
	}
	return res, nil
}

// endToEndMetrics pools the reps' packets and times; setup_s and the heap
// figure are medians over the reps.
func endToEndMetrics(m metrics, rs []*rep) {
	var setups, heaps []float64
	var cpuPkts int64
	var cpu time.Duration
	for _, r := range rs {
		setups = append(setups, r.setup.Seconds())
		heaps = append(heaps, r.heapPerConn)
		cpuPkts += r.cpuPackets
		cpu += r.cpu.User + r.cpu.Sys
	}
	m.set("setup_s", "s", median(setups))
	m.set("pps", "pkt/s", pps(rs...))
	m.set("cpu_us_per_pkt", "us", float64(cpu.Nanoseconds())/1e3/float64(cpuPkts))
	m.set("heap_bytes_per_conn", "B", median(heaps))
}

// pps is the reps' packets over their summed busy time.
func pps(rs ...*rep) float64 {
	var n int64
	var busy time.Duration
	for _, r := range rs {
		n, busy = n+r.ppsPackets, busy+r.busy
	}
	return float64(n) / busy.Seconds()
}

// perLayerMetrics takes the layer figures from the traced rep, and the
// CPU, allocation and latency figures from the untraced one, which they
// would otherwise include the tracing in. The latency percentiles are
// here, unbounded, rather than among the end-to-end metrics: on a host
// that shares its CPUs and last-level cache with other tenants they move
// by 20-50% between runs of the same code when the host's load changes.
func perLayerMetrics(m metrics, untraced, traced *rep) {
	for k, v := range traced.layer {
		m[k] = v
	}
	for _, k := range []string{"silkroad.allocs_per_pkt", "tunnel.user_us_per_pkt", "tunnel.sys_us_per_pkt", "tunnel.ctx_switches_per_pkt"} {
		m[k] = untraced.layer[k]
	}
	if _, ok := m["trace.overhead_ratio"]; !ok {
		m.set("trace.overhead_ratio", "ratio", pps(traced)/pps(untraced))
	}
	m.set("trace.clock_ns", "ns", clockNs())
	m.set("pcc_violations", "count", float64(traced.pcc))
	m.set("fail_ratio", "fraction", ratio(float64(untraced.failed+traced.failed), float64(untraced.offered+traced.offered)))
	batch, fwd := slices.Clone(untraced.batchNs), slices.Clone(untraced.fwdNs)
	m.set("batch_p50_us", "us", percentile(batch, 0.50)/1e3)
	m.set("batch_p99_us", "us", percentile(batch, 0.99)/1e3)
	m.set("fwd_p50_us", "us", percentile(fwd, 0.50)/1e3)
	m.set("fwd_p99_us", "us", percentile(fwd, 0.99)/1e3)
}
