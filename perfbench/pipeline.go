package main

import (
	"math/rand/v2"
	"time"

	silkroad "repro"
	"repro/internal/ctrlplane"
	"repro/internal/dataplane"
	"repro/internal/netproto"
)

const (
	batchSize = 64
	maxPacket = 1500
)

// batch is one batch of generated packets and the buffers the timed call
// works in. Everything is allocated once; generation fills it in place.
type batch struct {
	n      int
	conn   [batchSize]int32
	raw    [batchSize][]byte // raw[i] aliases buf[i]
	buf    [batchSize][maxPacket]byte
	frames [batchSize]silkroad.Frame
	res    [batchSize]silkroad.Result
	pkt    netproto.Packet // marshal scratch
}

// put marshals one TCP segment of connection c into slot b.n.
func (b *batch) put(c int, t silkroad.FiveTuple, flags uint8, payload []byte) error {
	b.pkt = netproto.Packet{Tuple: t, TCPFlags: flags, Payload: payload}
	raw, err := b.pkt.Marshal(b.buf[b.n][:0])
	if err != nil {
		return err
	}
	b.raw[b.n] = raw
	b.conn[b.n] = int32(c)
	b.n++
	return nil
}

// spans accumulates the traced run's per-layer time. Each span is the
// distance between two clock reads around one layer call, so it includes
// the cost of about one clock read (reported as trace.clock_ns).
type spans struct {
	parse, advance, process, handle, rewrite time.Duration
	packets, rewrites                        int64
	queueMax, pendingMax                     int
}

// pipeline drives one switch with batches the way Tunnel.Run does, minus
// the sockets: ParseFrame for every packet, ProcessFramesInto, then
// RewriteDst for every forwarded frame. Only that body is timed; the
// checks after it are not.
type pipeline struct {
	sw *silkroad.Switch
	dp *dataplane.Switch
	cp *ctrlplane.ControlPlane
	or *oracle
	b  *batch

	rng      *rand.Rand // picks the packet whose forwarding latency is sampled
	batchNs  []int64    // per timed batch: the whole body
	fwdNs    []int64    // per timed batch: body start to one packet's TX
	packets  int64
	verdicts [8]uint64
	failed   uint64 // offered but not forwarded to a correct DIP
	// Output errors: frames the harness built that did not parse, rewrites
	// that failed, and forwarded frames whose bytes do not carry the
	// chosen DIP with valid checksums.
	undecodable, txErrors, badRewrite uint64
	sp                                spans
}

func newPipeline(sw *silkroad.Switch, or *oracle, seed uint64, batches int) *pipeline {
	return &pipeline{
		sw: sw, dp: sw.Dataplane(), cp: sw.Controlplane(), or: or, b: new(batch),
		rng:     rand.New(rand.NewPCG(seed, 0x5eed)),
		batchNs: make([]int64, 0, batches),
		fwdNs:   make([]int64, 0, batches),
	}
}

// run pushes the generated batch through the switch at virtual time now,
// times it when timed is set (through the layers one by one when traced
// is also set), then checks every verdict and rewritten frame.
func (p *pipeline) run(now silkroad.Time, timed, traced bool) {
	b := p.b
	k := p.rng.IntN(b.n)
	var start, tk, end time.Time
	if traced {
		start, tk, end = p.traced(now, k)
	} else {
		start = time.Now()
		for i := 0; i < b.n; i++ {
			if netproto.ParseFrame(b.raw[i], &b.frames[i]) != nil {
				p.undecodable++
			}
		}
		p.sw.ProcessFramesInto(now, b.frames[:b.n], b.res[:b.n])
		for i := 0; i < b.n; i++ {
			if b.res[i].Verdict == silkroad.VerdictForward && b.frames[i].RewriteDst(b.res[i].DIP) != nil {
				p.txErrors++
			}
			if i == k {
				tk = time.Now()
			}
		}
		end = time.Now()
	}
	if timed {
		p.batchNs = append(p.batchNs, end.Sub(start).Nanoseconds())
		p.fwdNs = append(p.fwdNs, tk.Sub(start).Nanoseconds())
		p.packets += int64(b.n)
	}
	p.check()
}

// traced is the body of run split at each layer boundary. For the one-pipe
// switch it makes exactly the calls ProcessFramesInto makes, in the same
// order (Advance, ProcessFrame, HandleTupleResultInto per packet), so
// every count must match the untraced body.
func (p *pipeline) traced(now silkroad.Time, k int) (start, tk, end time.Time) {
	b, sp := p.b, &p.sp
	start = time.Now()
	for i := 0; i < b.n; i++ {
		if netproto.ParseFrame(b.raw[i], &b.frames[i]) != nil {
			p.undecodable++
		}
	}
	t0 := time.Now()
	sp.parse += t0.Sub(start)
	for i := 0; i < b.n; i++ {
		p.cp.Advance(now)
		t1 := time.Now()
		b.res[i] = p.dp.ProcessFrame(now, &b.frames[i])
		t2 := time.Now()
		p.cp.HandleTupleResultInto(now, b.frames[i].Tuple, &b.res[i])
		t3 := time.Now()
		sp.advance += t1.Sub(t0)
		sp.process += t2.Sub(t1)
		sp.handle += t3.Sub(t2)
		t0 = t3
		sp.queueMax = max(sp.queueMax, p.cp.QueueDepth())
		sp.pendingMax = max(sp.pendingMax, p.dp.LearnFilter().Len())
	}
	sp.packets += int64(b.n)
	for i := 0; i < b.n; i++ {
		if b.res[i].Verdict == silkroad.VerdictForward {
			if b.frames[i].RewriteDst(b.res[i].DIP) != nil {
				p.txErrors++
			}
			sp.rewrites++
		}
		if i == k {
			tk = time.Now()
		}
	}
	end = time.Now()
	sp.rewrite += end.Sub(t0)
	return start, tk, end
}

// busy is the summed time of the timed batches.
func (p *pipeline) busy() time.Duration {
	var ns int64
	for _, d := range p.batchNs {
		ns += d
	}
	return time.Duration(ns)
}

// outputErrors counts outputs that are wrong whatever the switch state:
// any makes the run incorrect.
func (p *pipeline) outputErrors() uint64 {
	return p.undecodable + p.txErrors + p.badRewrite + p.or.stray
}

// resetCounts starts the timed phase's counts from zero.
func (p *pipeline) resetCounts() {
	p.verdicts = [8]uint64{}
	p.failed, p.undecodable, p.txErrors, p.badRewrite = 0, 0, 0, 0
	p.or.pcc, p.or.stray = 0, 0
}

// check verifies the batch's outputs against the oracle and the bytes.
func (p *pipeline) check() {
	b := p.b
	for i := 0; i < b.n; i++ {
		res := &b.res[i]
		p.verdicts[res.Verdict&7]++
		if res.Verdict != silkroad.VerdictForward {
			p.failed++
			continue
		}
		if !checkRewrite(&b.frames[i], res.DIP) {
			p.badRewrite++
		}
		if !p.or.forwarded(int(b.conn[i]), res.DIP.Addr(), res.DIP.Port()) {
			p.failed++
		}
	}
	b.n = 0
}
