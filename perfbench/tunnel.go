package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	silkroad "repro"
)

// The wire workload runs the system under test in a process of its own,
// as silkroadd runs: this binary, started with tunnelEnv set to its
// arguments, serves one Tunnel and answers commands read from stdin with
// one JSON line each on stdout. Its CPU time, allocations and runtime
// wakeups are then the tunnel's alone, not shared with the load generator
// and the sink.
const tunnelEnv = "PERFBENCH_TUNNEL"

type tunnelArgs struct {
	Seed       uint64
	VIPs, DIPs int
	Conns      int
	SinkPort   uint16
}

// reply answers one command. Err is set when the command failed.
type reply struct {
	Addr      string `json:",omitempty"`
	Err       string `json:",omitempty"`
	Heap      uint64 `json:",omitempty"`
	Usage     usage
	Mallocs   uint64 `json:",omitempty"`
	Stats     silkroad.Stats
	Tunnel    silkroad.TunnelStats
	Occupancy float64 `json:",omitempty"`
	Metrics   metrics `json:",omitempty"`
	Wrong     uint64  `json:",omitempty"` // wrong outputs in the sweeps
}

// tunnelProc is the tunnel process's state.
type tunnelProc struct {
	a       tunnelArgs
	sw      *silkroad.Switch
	tun     *silkroad.Tunnel
	or      *oracle
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	stopped bool
}

// serveTunnel is the tunnel process's main. Commands: "heap" (live heap
// after GC), "installed" (wait until every connection is installed),
// "snap" (CPU, allocations and counters so far), "sweep" (stop forwarding
// and run the in-process sweeps). End of input stops it.
func serveTunnel(args string, in io.Reader, out io.Writer) int {
	enc := json.NewEncoder(out)
	var t tunnelProc
	if err := json.Unmarshal([]byte(args), &t.a); err != nil {
		_ = enc.Encode(reply{Err: err.Error()})
		return 1
	}
	if err := t.start(); err != nil {
		_ = enc.Encode(reply{Err: err.Error()})
		t.stop()
		return 1
	}
	defer t.stop()
	if err := enc.Encode(reply{Addr: t.tun.LocalAddr().String()}); err != nil {
		return 1
	}
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		var r reply
		var err error
		switch cmd := sc.Text(); cmd {
		case "heap":
			r.Heap = heapAfterGC()
		case "installed":
			err = t.installed()
		case "snap":
			r = reply{Usage: readUsage(), Mallocs: mallocs(), Stats: t.sw.Stats(), Tunnel: t.tun.Stats(),
				Occupancy: t.sw.Dataplane().ConnTable().Occupancy()}
		case "sweep":
			t.stop()
			r.Metrics, r.Wrong, err = t.sweep()
		default:
			err = fmt.Errorf("unknown command %q", cmd)
		}
		if err != nil {
			r.Err = err.Error()
		}
		if err := enc.Encode(r); err != nil {
			return 1
		}
	}
	return 0
}

// start builds the switch as silkroadd does, announces the VIPs with DIPs
// on the sink's port, and starts the runtime and the tunnel loop.
func (t *tunnelProc) start() error {
	sw, err := newSwitch(nil, true)
	if err != nil {
		return err
	}
	t.sw = sw
	t.or = newOracle(t.a.Conns, t.a.VIPs, t.a.DIPs, [2]byte{127, 0}, t.a.SinkPort)
	for v := 0; v < t.a.VIPs; v++ {
		if err := sw.AddVIP(sw.Now(), vipAddr(v), t.or.pool(v)); err != nil {
			return fmt.Errorf("add VIP %d: %w", v, err)
		}
	}
	t.tun, err = silkroad.NewTunnel(silkroad.TunnelConfig{Switch: sw, Listen: "127.0.0.1:0", Mode: silkroad.TunnelRewrite})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.cancel = cancel
	t.wg.Add(2)
	go func() { defer t.wg.Done(); _ = sw.Run(ctx) }()
	go func() { defer t.wg.Done(); _ = t.tun.Run(ctx) }()
	return nil
}

// stop ends forwarding and waits for the runtime and the tunnel loop. It
// may be called more than once.
func (t *tunnelProc) stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	if t.cancel != nil {
		t.cancel()
	}
	if t.tun != nil {
		t.tun.Close()
	}
	t.wg.Wait()
	if t.sw != nil {
		t.sw.Close()
	}
}

// installed waits until the switch CPU has installed every connection.
func (t *tunnelProc) installed() error {
	deadline := time.Now().Add(primeWait)
	for {
		n := t.sw.Stats().Connections
		if n == t.a.Conns {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("priming: switch tracks %d connections, want %d", n, t.a.Conns)
		}
		time.Sleep(time.Millisecond)
	}
}

// sweep pushes every connection's packet through the stopped tunnel's
// switch in process, sweepCount times untraced and as often traced: the
// span figures split the pipeline's share of the wire path by layer.
func (t *tunnelProc) sweep() (metrics, uint64, error) {
	conns := t.a.Conns
	batches := sweepCount * ((conns + batchSize - 1) / batchSize)
	var pps [2]float64
	var gen time.Duration
	var wrong uint64
	var payload [seqLen]byte
	var p *pipeline
	for i, traced := range []bool{false, true} {
		p = newPipeline(t.sw, t.or, t.a.Seed, batches)
		for c := 0; c < sweepCount*conns; {
			g := time.Now()
			for p.b.n < batchSize && c < sweepCount*conns {
				k := c % conns
				if err := p.b.put(k, connTuple(t.a.Seed, k, vipAddr(k%t.a.VIPs)), silkroad.FlagACK, payload[:]); err != nil {
					return nil, 0, err
				}
				c++
			}
			gen += time.Since(g)
			p.run(t.sw.Now(), true, traced)
		}
		wrong += p.undecodable + p.txErrors + p.badRewrite
		pps[i] = float64(p.packets) / p.busy().Seconds()
	}
	m := metrics{}
	spanLayers(m, &p.sp)
	m.set("trace.overhead_ratio", "ratio", pps[1]/pps[0])
	m.set("gen.ns_per_pkt", "ns", float64(gen.Nanoseconds())/float64(2*sweepCount*conns))
	return m, wrong + t.or.stray, nil
}
