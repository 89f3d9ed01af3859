package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/netip"
	"os"
	"os/exec"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	silkroad "repro"
)

const (
	openRate   = 20_000 // phase 1: packets per second
	openTick   = time.Millisecond
	perTick    = openRate / int(time.Second/openTick)
	window     = 64 // phase 2: packets in flight
	seqLen     = 16 // payload: sequence number and due time
	lossWait   = 200 * time.Millisecond
	primeWait  = 10 * time.Second
	sweepCount = 4 // traced run: in-process sweeps over the connections
)

// inFlight bounds phase 1's outstanding packets well below the 256
// minimum-size datagrams that a Linux UDP socket with the default 208 KiB
// receive buffer queues: the kernel may keep up to a quarter of that
// buffer charged for datagrams already read. See hold. In normal running
// fewer than 96 are outstanding, most of them in the tunnel's unfinished
// batch, so only stalls are held.
const (
	inFlight  = 160
	stallWait = time.Second
)

// wireSpec sizes the wire workload.
type wireSpec struct {
	vips, dips, conns int
	ticks             int // phase 1 length in openTick
	windows           int // phase 2 length in windows
}

// sink is every mock DIP at once: one socket bound to 0.0.0.0:port
// receives what the tunnel sends to 127.0.v.d:port. Its goroutine owns
// the oracle and the error counts until it exits.
type sink struct {
	conn   *net.UDPConn
	port   uint16
	seed   uint64
	vip    []silkroad.VIP
	or     *oracle
	connOf []int32        // per sequence number: its connection, fixed before any send
	recvAt []atomic.Int64 // per sequence number: receipt time since base, 0 until received
	base   time.Time

	got    atomic.Int64
	target atomic.Int64
	done   chan struct{} // signalled when got reaches target
	resume atomic.Int64
	room   chan struct{} // signalled when got reaches resume

	corrupt, failed uint64
}

func (s *sink) serve() {
	buf := make([]byte, 2048)
	var f silkroad.Frame
	for {
		n, err := s.conn.Read(buf)
		if err != nil {
			return
		}
		s.receive(buf[:n], time.Since(s.base).Nanoseconds(), &f)
		g := s.got.Add(1)
		if g == s.target.Load() {
			signal(s.done)
		}
		if g == s.resume.Load() {
			signal(s.room)
		}
	}
}

// signal wakes whoever waits on c without blocking the sink. A stale
// signal only makes the waiter check its condition once more.
func signal(c chan struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
}

// receive checks one forwarded packet: it must parse, carry a sequence
// number that was sent exactly once from the connection it names, be
// rewritten to this sink's port with valid checksums, and go to a DIP of
// its VIP's pool consistent with the connection's first one.
func (s *sink) receive(pkt []byte, at int64, f *silkroad.Frame) {
	if silkroad.ParseFrame(pkt, f) != nil || len(f.Payload()) != seqLen {
		s.corrupt++
		return
	}
	pl := f.Payload()
	seq := binary.LittleEndian.Uint64(pl)
	due := int64(binary.LittleEndian.Uint64(pl[8:]))
	if seq >= uint64(len(s.connOf)) || due > at {
		s.corrupt++
		return
	}
	c := int(s.connOf[seq])
	t := connTuple(s.seed, c, s.vip[c%len(s.vip)])
	dip := netip.AddrPortFrom(f.Tuple.Dst, f.Tuple.DstPort)
	if f.Tuple.Src != t.Src || f.Tuple.SrcPort != t.SrcPort || dip.Port() != s.port ||
		!checkRewrite(f, dip) || !s.recvAt[seq].CompareAndSwap(0, at) {
		s.corrupt++
		return
	}
	if !s.or.forwarded(c, dip.Addr(), dip.Port()) {
		s.failed++
	}
}

// wireRun is one rep of the wire workload: the load generator and the
// sink in this process, the tunnel in a child process.
type wireRun struct {
	spec   wireSpec
	seed   uint64
	child  *exec.Cmd
	in     io.WriteCloser // the child's commands
	out    *bufio.Scanner // its replies
	client *net.UDPConn
	s      *sink
	dueAt  []int64 // per sequence number: due time since base
	seq    int     // next sequence number
	gaveUp int64   // packets hold has given up on as lost
	buf    [maxPacket]byte
	pl     [seqLen]byte
	pkt    silkroad.Packet

	wg      sync.WaitGroup
	stopped bool
}

// start binds the sink, starts the tunnel process with DIPs on the sink's
// port, and connects the client to the tunnel.
func (w *wireRun) start() error {
	sc, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4zero})
	if err != nil {
		return fmt.Errorf("sink: %w", err)
	}
	port := uint16(sc.LocalAddr().(*net.UDPAddr).Port)
	total := w.spec.conns + w.spec.ticks*perTick + w.spec.windows*window
	w.s = &sink{
		conn: sc, port: port, seed: w.seed,
		or:     newOracle(w.spec.conns, w.spec.vips, w.spec.dips, [2]byte{127, 0}, port),
		connOf: make([]int32, total),
		recvAt: make([]atomic.Int64, total),
		base:   time.Now(),
		done:   make(chan struct{}, 1),
		room:   make(chan struct{}, 1),
	}
	// A sink that drops would charge the harness's losses to the tunnel.
	if err := sc.SetReadBuffer(4 << 20); err != nil {
		return fmt.Errorf("sink buffer: %w", err)
	}
	w.dueAt = make([]int64, total)
	rng := rand.New(rand.NewPCG(w.seed, 0x3172e))
	for i := range w.s.connOf {
		if i < w.spec.conns {
			w.s.connOf[i] = int32(i)
		} else {
			w.s.connOf[i] = int32(rng.IntN(w.spec.conns))
		}
	}
	for v := 0; v < w.spec.vips; v++ {
		w.s.vip = append(w.s.vip, vipAddr(v))
	}

	args, err := json.Marshal(tunnelArgs{Seed: w.seed, VIPs: w.spec.vips, DIPs: w.spec.dips, Conns: w.spec.conns, SinkPort: port})
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	w.child = exec.Command(exe)
	w.child.Env = append(os.Environ(), tunnelEnv+"="+string(args))
	w.child.Stderr = os.Stderr
	if w.in, err = w.child.StdinPipe(); err != nil {
		return err
	}
	stdout, err := w.child.StdoutPipe()
	if err != nil {
		return err
	}
	if err := w.child.Start(); err != nil {
		return fmt.Errorf("tunnel process: %w", err)
	}
	w.out = bufio.NewScanner(stdout)
	r, err := w.read()
	if err != nil {
		return err
	}
	tun, err := netip.ParseAddrPort(r.Addr)
	if err != nil {
		return fmt.Errorf("tunnel address: %w", err)
	}
	if w.client, err = net.DialUDP("udp4", nil, net.UDPAddrFromAddrPort(tun)); err != nil {
		return fmt.Errorf("client: %w", err)
	}
	w.wg.Add(1)
	go func() { defer w.wg.Done(); w.s.serve() }()
	return nil
}

// read returns the tunnel process's next reply.
func (w *wireRun) read() (reply, error) {
	var r reply
	if !w.out.Scan() {
		return r, fmt.Errorf("tunnel process exited: %v", w.out.Err())
	}
	if err := json.Unmarshal(w.out.Bytes(), &r); err != nil {
		return r, fmt.Errorf("tunnel process reply: %w", err)
	}
	if r.Err != "" {
		return r, fmt.Errorf("tunnel process: %s", r.Err)
	}
	return r, nil
}

// call sends one command to the tunnel process and returns its reply.
func (w *wireRun) call(cmd string) (reply, error) {
	if _, err := fmt.Fprintln(w.in, cmd); err != nil {
		return reply{}, fmt.Errorf("tunnel process: %w", err)
	}
	return w.read()
}

// stop ends the tunnel process and the sink goroutine and waits for both.
// It may be called more than once.
func (w *wireRun) stop() {
	if w.stopped {
		return
	}
	w.stopped = true
	if w.child != nil && w.child.Process != nil {
		w.in.Close() // end of input stops the tunnel process
		done := make(chan struct{})
		go func() {
			_ = w.child.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			_ = w.child.Process.Kill()
			<-done
		}
	}
	if w.client != nil {
		w.client.Close()
	}
	if w.s != nil {
		w.s.conn.Close()
	}
	w.wg.Wait()
}

// send marshals the next sequence number's packet, due at due, and writes
// it to the tunnel.
func (w *wireRun) send(flags uint8, due time.Time) error {
	seq := w.seq
	w.seq++
	c := int(w.s.connOf[seq])
	d := due.Sub(w.s.base).Nanoseconds()
	w.dueAt[seq] = d
	binary.LittleEndian.PutUint64(w.pl[:], uint64(seq))
	binary.LittleEndian.PutUint64(w.pl[8:], uint64(d))
	w.pkt = silkroad.Packet{Tuple: connTuple(w.seed, c, w.s.vip[c%w.spec.vips]), TCPFlags: flags, Payload: w.pl[:]}
	raw, err := w.pkt.Marshal(w.buf[:0])
	if err != nil {
		return err
	}
	_, err = w.client.Write(raw)
	return err
}

// expect arms the sink to signal once n more packets have arrived.
func (w *wireRun) expect(n int) { w.s.target.Store(w.s.got.Load() + int64(n)) }

// wait blocks until the armed count arrived or lossWait passed.
func (w *wireRun) wait(t *time.Timer) {
	t.Reset(lossWait)
	select {
	case <-w.s.done:
		if !t.Stop() {
			<-t.C
		}
	case <-t.C:
	}
}

// prime opens connections up to upTo with SYNs, in closed-loop windows.
func (w *wireRun) prime(t *time.Timer, upTo int) error {
	for w.seq < upTo {
		n := min(window, upTo-w.seq)
		w.hold(t, n)
		w.expect(n)
		for i := 0; i < n; i++ {
			if err := w.send(silkroad.FlagSYN, time.Now()); err != nil {
				return err
			}
		}
		w.wait(t)
	}
	return nil
}

// hold blocks until n more packets can be sent with at most inFlight
// outstanding. The generator then never queues more at the tunnel's
// ingress socket than its default receive buffer holds: without it, a
// burst the open loop sends after the host's scheduler stalled it, packets
// that pile up while the tunnel is stalled, or windows sent after earlier
// ones timed out, are dropped by the kernel in a number that varies from
// run to run. A held packet is late and is timed from when it was due, so
// the stall still shows in gen.late_*, fwd_p99_us and pps. Packets still
// outstanding after stallWait are given up as lost, so that losses cannot
// stop the generator.
func (w *wireRun) hold(t *time.Timer, n int) {
	need := int64(w.seq+n) - w.gaveUp - inFlight // got must reach this
	if w.s.got.Load() >= need {
		return
	}
	w.s.resume.Store(need)
	t.Reset(stallWait)
	for w.s.got.Load() < need {
		select {
		case <-w.s.room:
		case <-t.C:
			w.gaveUp = int64(w.seq) - w.s.got.Load()
			return
		}
	}
	if !t.Stop() {
		<-t.C
	}
}

// openLoop is phase 1: perTick packets due at the start of every tick,
// sent whatever came back as long as fewer than inFlight are outstanding.
// late records how late each was sent.
func (w *wireRun) openLoop(t *time.Timer, late []int64) error {
	w.expect(w.spec.ticks * perTick)
	start := time.Now()
	for k := 0; k < w.spec.ticks; k++ {
		due := start.Add(time.Duration(k) * openTick)
		sleepUntil(due)
		for j := 0; j < perTick; j++ {
			w.hold(t, 1)
			late[k*perTick+j] = time.Since(due).Nanoseconds()
			if err := w.send(silkroad.FlagACK, due); err != nil {
				return err
			}
		}
	}
	w.wait(t)
	return nil
}

// sleepUntil blocks the calling thread in nanosleep until t. The runtime's
// timers wake an idle process in whole milliseconds, which would make the
// open loop late by up to a tick.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps again
	}
}

// closedLoop is phase 2: windows of packets sent back to back, the next
// window once the whole previous one arrived or lossWait passed, and once
// hold leaves room for it. It records how long each window took and how
// many of its packets arrived.
func (w *wireRun) closedLoop(t *time.Timer, took, got []int64) error {
	for i := range took {
		t0 := time.Now()
		w.hold(t, window)
		w.expect(window)
		got0 := w.s.got.Load()
		for j := 0; j < window; j++ {
			if err := w.send(silkroad.FlagACK, t0); err != nil {
				return err
			}
		}
		w.wait(t)
		took[i] = time.Since(t0).Nanoseconds()
		got[i] = min(window, w.s.got.Load()-got0)
	}
	return nil
}

// runWire starts one tunnel process with its sink and client, primes it,
// and runs the open-loop then the closed-loop phase. When traced, the
// tunnel process then stops forwarding and sweeps the same connections
// through its switch in process, untraced and traced, to split the
// pipeline's share by layer.
func runWire(spec wireSpec, seed uint64, traced bool) (*rep, error) {
	t0 := time.Now()
	w := &wireRun{spec: spec, seed: seed}
	defer w.stop()
	if err := w.start(); err != nil {
		return nil, err
	}
	timer := time.NewTimer(lossWait)
	timer.Stop()
	// The first window makes the tunnel allocate its buffers, so that the
	// heap baseline holds everything but the connections' state.
	if err := w.prime(timer, window); err != nil {
		return nil, err
	}
	g := time.Now()
	h1, err := w.call("heap")
	if err != nil {
		return nil, err
	}
	gc := time.Since(g)
	if err := w.prime(timer, spec.conns); err != nil {
		return nil, err
	}
	if _, err := w.call("installed"); err != nil {
		return nil, err
	}
	r := &rep{setup: time.Since(t0) - gc}
	h2, err := w.call("heap")
	if err != nil {
		return nil, err
	}
	r.heapPerConn = float64(h2.Heap-h1.Heap) / float64(spec.conns-window)

	p1, p2 := spec.ticks*perTick, spec.windows*window
	late := make([]int64, p1)
	r.batchNs = make([]int64, spec.windows)
	got := make([]int64, spec.windows)
	s0, err := w.call("snap")
	if err != nil {
		return nil, err
	}
	if err := w.openLoop(timer, late); err != nil {
		return nil, err
	}
	s1, err := w.call("snap")
	if err != nil {
		return nil, err
	}
	if err := w.closedLoop(timer, r.batchNs, got); err != nil {
		return nil, err
	}
	s2, err := w.call("snap")
	if err != nil {
		return nil, err
	}
	r.layer = metrics{}
	if traced {
		sw, err := w.call("sweep")
		if err != nil {
			return nil, err
		}
		r.layer, r.outputErrs = sw.Metrics, sw.Wrong
	}
	// Stopping waits for the sink goroutine: from here on its oracle and
	// counts belong to this goroutine.
	w.stop()

	first := spec.conns
	r.fwdNs = make([]int64, 0, p1)
	lost := 0
	for seq := first; seq < first+p1+p2; seq++ {
		at := w.s.recvAt[seq].Load()
		switch {
		case at == 0:
			lost++
		case seq < first+p1:
			r.fwdNs = append(r.fwdNs, at-w.dueAt[seq])
		}
	}
	r.offered = int64(p1 + p2)
	for i := range got {
		r.ppsPackets += got[i]
		r.busy += time.Duration(r.batchNs[i])
	}
	r.cpu, r.cpuPackets = s1.Usage.sub(s0.Usage), int64(p1)
	r.failed = uint64(lost) + w.s.failed
	r.pcc = w.s.or.pcc
	r.outputErrs += w.s.corrupt + w.s.or.stray
	d := statsDelta(s0.Stats, s2.Stats)
	r.counts = fmt.Sprintf("offered=%d misses=%d learns=%d inserted=%d pcc=%d",
		r.offered, d.Dataplane.ConnMisses, d.Dataplane.LearnOffers, d.Controlplane.Inserted, r.pcc)

	counterLayers(r.layer, d, s2.Occupancy)
	usageLayers(r.layer, s2.Usage.sub(s0.Usage), s2.Mallocs-s0.Mallocs, r.offered)
	r.layer.set("tunnel.dropped", "count", float64(s2.Tunnel.Dropped-s0.Tunnel.Dropped))
	r.layer.set("tunnel.undecodable", "count", float64(s2.Tunnel.Undecodable-s0.Tunnel.Undecodable))
	r.layer.set("tunnel.tx_errors", "count", float64(s2.Tunnel.TxErrors-s0.Tunnel.TxErrors))
	r.layer.set("gen.late_max_ms", "ms", float64(slices.Max(late))/1e6)
	r.layer.set("gen.late_p99_us", "us", percentile(late, 0.99)/1e3)
	return r, nil
}
