package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	silkroad "repro"
	"repro/internal/sched"
)

// Virtual-time steps of the in-process workloads.
const (
	primeStep = 8 * silkroad.Microsecond  // per priming SYN: 125K/s, below the 200K/s insert rate
	pktStep   = 1 * silkroad.Microsecond  // per timed packet
	poolEvery = 10 * silkroad.Millisecond // churn: one pool change per 10 ms
	settle    = 20 * silkroad.Millisecond // after priming: every learn is installed
	synEvery  = 8                         // churn: one SYN per 8 packets
)

// inprocSpec sizes an in-process workload.
type inprocSpec struct {
	vips, dips int
	conns      int  // live connections primed before timing
	batches    int  // timed batches per rep
	churn      bool // open/retire connections, IMIX payloads, pool changes
}

// inproc is one rep of an in-process workload: a switch configured the
// way silkroadd configures it, driven by a manual clock.
type inproc struct {
	spec  inprocSpec
	seed  uint64
	sw    *silkroad.Switch
	clock *sched.ManualClock
	or    *oracle
	p     *pipeline
	rng   *rand.Rand
	vip   []silkroad.VIP

	payload [maxPacket]byte

	perm []int32 // established: sweep order
	pos  int

	lo, hi     int // churn: the live connections are lo..hi-1
	nextPool   silkroad.Time
	poolEvents int
	poolV      int
	poolD      int

	gen time.Duration // generating timed batches
}

// newSwitch configures a switch the way cmd/silkroadd does by default:
// Defaults(1_000_000), one pipe, degraded-mode watermarks, a telemetry
// registry, and the 1 s SLO evaluator when slo is set.
func newSwitch(clock silkroad.Clock, slo bool) (*silkroad.Switch, error) {
	cfg := silkroad.Defaults(1_000_000)
	cfg.Dataplane.DegradedHighWatermark = 0.95
	cfg.Dataplane.DegradedLowWatermark = 0.85
	cfg.Telemetry = silkroad.NewTelemetry()
	cfg.Clock = clock
	if slo {
		cfg.SLO = &silkroad.SLOConfig{Interval: silkroad.Second}
	}
	return silkroad.NewSwitch(cfg)
}

func newInproc(spec inprocSpec, seed uint64) (*inproc, error) {
	w := &inproc{spec: spec, seed: seed, clock: silkroad.NewManualClock(0)}
	sw, err := newSwitch(w.clock, false)
	if err != nil {
		return nil, err
	}
	w.sw = sw
	total := spec.conns
	if spec.churn {
		total += spec.batches * batchSize / synEvery
	}
	w.or = newOracle(total, spec.vips, spec.dips, [2]byte{172, 16}, 8080)
	for v := 0; v < spec.vips; v++ {
		w.vip = append(w.vip, vipAddr(v))
		if err := sw.AddVIP(0, w.vip[v], w.or.pool(v)); err != nil {
			return nil, fmt.Errorf("add VIP %d: %w", v, err)
		}
	}
	w.p = newPipeline(sw, w.or, seed, spec.batches)
	w.rng = rand.New(rand.NewPCG(seed, 0xc0ffee))
	if !spec.churn {
		w.perm = make([]int32, spec.conns)
		for i := range w.perm {
			w.perm[i] = int32(i)
		}
		w.pos = len(w.perm)
	}
	return w, nil
}

func (w *inproc) tuple(c int) silkroad.FiveTuple {
	return connTuple(w.seed, c, w.vip[c%w.spec.vips])
}

// prime opens every live connection with a SYN, untimed, then lets the
// switch CPU install them all.
func (w *inproc) prime() error {
	b := w.p.b
	for c := 0; c < w.spec.conns; c++ {
		if err := b.put(c, w.tuple(c), silkroad.FlagSYN, nil); err != nil {
			return err
		}
		if b.n == batchSize || c == w.spec.conns-1 {
			n := b.n
			w.p.run(w.clock.Now(), false, false)
			w.clock.Advance(silkroad.Duration(n) * primeStep)
		}
	}
	w.clock.Advance(settle)
	w.sw.Advance(w.clock.Now())
	if e := w.p.outputErrors(); e != 0 || w.p.failed != 0 {
		return fmt.Errorf("priming: %d output errors, %d failed packets", e, w.p.failed)
	}
	if got := w.sw.Stats().Connections; got != w.spec.conns {
		return fmt.Errorf("priming: switch tracks %d connections, want %d", got, w.spec.conns)
	}
	w.lo, w.hi = 0, w.spec.conns
	w.nextPool = w.clock.Now() + silkroad.Time(poolEvery)
	return nil
}

// generate fills the next batch, untimed and without allocating.
func (w *inproc) generate() error {
	b := w.p.b
	for j := 0; j < batchSize; j++ {
		var err error
		switch {
		case !w.spec.churn:
			if w.pos == len(w.perm) {
				w.rng.Shuffle(len(w.perm), func(i, k int) { w.perm[i], w.perm[k] = w.perm[k], w.perm[i] })
				w.pos = 0
			}
			c := int(w.perm[w.pos])
			w.pos++
			err = b.put(c, w.tuple(c), silkroad.FlagACK, nil)
		case j%synEvery == 0:
			c := w.hi + j/synEvery
			err = b.put(c, w.tuple(c), silkroad.FlagSYN, nil)
		default:
			c := w.lo + w.rng.IntN(w.hi-w.lo)
			err = b.put(c, w.tuple(c), silkroad.FlagACK, w.payload[:imix(w.rng)])
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// imix draws a TCP payload size from the 7:4:1 mix of 40 B, 576 B and
// 1500 B IPv4 packets.
func imix(r *rand.Rand) int {
	switch n := r.IntN(12); {
	case n < 7:
		return 0
	case n < 11:
		return 576 - 40
	default:
		return 1500 - 40
	}
}

// measure runs the timed phase: a fixed number of batches, each generated,
// pushed through the switch and checked.
func (w *inproc) measure(traced bool) error {
	w.p.resetCounts()
	for i := 0; i < w.spec.batches; i++ {
		g := time.Now()
		if err := w.generate(); err != nil {
			return err
		}
		w.gen += time.Since(g)
		now := w.clock.Now()
		w.p.run(now, true, traced)
		w.clock.Advance(batchSize * pktStep)
		if w.spec.churn {
			if err := w.churn(now); err != nil {
				return err
			}
		}
	}
	return nil
}

// churn retires the oldest connection for each one the batch opened, and
// every poolEvery of virtual time takes a seeded DIP out of a seeded VIP's
// pool or puts the last one taken out back.
func (w *inproc) churn(now silkroad.Time) error {
	for j := 0; j < batchSize/synEvery; j++ {
		w.sw.EndConnection(now, w.tuple(w.lo))
		w.lo++
	}
	w.hi += batchSize / synEvery
	if now < w.nextPool {
		return nil
	}
	w.nextPool += silkroad.Time(poolEvery)
	w.poolEvents++
	if w.poolEvents%2 == 1 {
		w.poolV, w.poolD = w.rng.IntN(w.spec.vips), w.rng.IntN(w.spec.dips)
		w.or.removed(w.poolV, w.poolD)
		return w.sw.RemoveDIP(now, w.vip[w.poolV], w.or.dip(w.poolV, w.poolD))
	}
	return w.sw.AddDIP(now, w.vip[w.poolV], w.or.dip(w.poolV, w.poolD))
}

// runInproc sets up one fresh switch, primes it and runs the timed phase.
func runInproc(spec inprocSpec, seed uint64, traced bool) (*rep, error) {
	heapAfterGC()
	t0 := time.Now()
	w, err := newInproc(spec, seed)
	if err != nil {
		return nil, err
	}
	defer w.sw.Close()
	build := time.Since(t0)
	heap1 := heapAfterGC()
	t1 := time.Now()
	if err := w.prime(); err != nil {
		return nil, err
	}
	r := &rep{setup: build + time.Since(t1)}
	r.heapPerConn = float64(heapAfterGC()-heap1) / float64(spec.conns)

	before := w.sw.Stats()
	u0, m0 := readUsage(), mallocs()
	if err := w.measure(traced); err != nil {
		return nil, err
	}
	r.cpu = readUsage().sub(u0)
	allocs := mallocs() - m0
	after := w.sw.Stats()

	p := w.p
	r.offered, r.cpuPackets = p.packets, p.packets
	r.batchNs, r.fwdNs = p.batchNs, p.fwdNs
	r.ppsPackets, r.busy = p.packets, p.busy()
	r.failed, r.outputErrs, r.pcc = p.failed, p.outputErrors(), p.or.pcc
	d := statsDelta(before, after)
	r.counts = fmt.Sprintf("verdicts=%v pcc=%d failed=%d dp=%+v cp=%+v", p.verdicts, p.or.pcc, p.failed, d.Dataplane, d.Controlplane)
	r.layer = metrics{}
	counterLayers(r.layer, d, w.sw.Dataplane().ConnTable().Occupancy())
	if traced {
		spanLayers(r.layer, &p.sp)
	}
	usageLayers(r.layer, r.cpu, allocs, p.packets)
	r.layer.set("gen.ns_per_pkt", "ns", float64(w.gen.Nanoseconds())/float64(p.packets))
	r.layer.set("gen.late_p99_us", "us", 0)
	r.layer.set("gen.late_max_ms", "ms", 0)
	r.layer.set("tunnel.dropped", "count", float64(uint64(p.packets)-p.verdicts[silkroad.VerdictForward]))
	r.layer.set("tunnel.undecodable", "count", float64(p.undecodable))
	r.layer.set("tunnel.tx_errors", "count", float64(p.txErrors))
	return r, nil
}
