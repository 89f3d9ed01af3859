package silkroad

// End-to-end loopback tests of the wire path: a real UDP client sends raw
// TCP-in-UDP packets to a Tunnel, which balances them through the switch
// and forwards to real mock-DIP UDP listeners. Everything is unprivileged
// (plain sockets on 127.0.0.1), so these run in CI under -race.

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netproto"
)

// mockDIP is one backend: a UDP listener recording, per client connection
// (source port), how many packets it received, plus per-packet header
// checks.
type mockDIP struct {
	addr netip.AddrPort
	conn *net.UDPConn

	mu      sync.Mutex
	byConn  map[uint16]int // client src port -> packets seen here
	badPkts int            // payloads that failed the per-mode header check
}

// startMockDIP binds a UDP listener on 127.0.0.1 and consumes datagrams
// until its socket closes. check validates each payload (per forwarding
// mode) and returns the client source port.
func startMockDIP(t *testing.T, wg *sync.WaitGroup, check func(d *mockDIP, pkt []byte) (uint16, bool)) *mockDIP {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatalf("mock DIP listen: %v", err)
	}
	d := &mockDIP{
		addr:   conn.LocalAddr().(*net.UDPAddr).AddrPort(),
		conn:   conn,
		byConn: make(map[uint16]int),
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 65536)
		for {
			n, _, err := conn.ReadFromUDP(buf)
			if err != nil {
				return
			}
			src, ok := check(d, buf[:n])
			d.mu.Lock()
			if ok {
				d.byConn[src]++
			} else {
				d.badPkts++
			}
			d.mu.Unlock()
		}
	}()
	return d
}

// rewriteCheck validates a DNAT-forwarded packet: its destination must be
// this very DIP.
func rewriteCheck(d *mockDIP, pkt []byte) (uint16, bool) {
	var f netproto.Frame
	if err := netproto.ParseFrame(pkt, &f); err != nil {
		return 0, false
	}
	if f.Tuple.Dst != d.addr.Addr() || f.Tuple.DstPort != d.addr.Port() {
		return f.Tuple.SrcPort, false
	}
	return f.Tuple.SrcPort, true
}

// tunnelHarness bundles one running switch+tunnel with its client socket.
type tunnelHarness struct {
	sw     *Switch
	tun    *Tunnel
	client *net.UDPConn
	cancel context.CancelFunc
	done   chan struct{} // closed when Run returned
}

func startTunnel(t *testing.T, sw *Switch, mode string) *tunnelHarness {
	t.Helper()
	tcfg := TunnelConfig{
		Switch: sw,
		Listen: "127.0.0.1:0",
		Mode:   mode,
		Logf:   t.Logf,
	}
	if mode == TunnelIPIP {
		tcfg.Self = netip.MustParseAddr("192.0.2.1")
	}
	tun, err := NewTunnel(tcfg)
	if err != nil {
		t.Fatalf("NewTunnel: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := tun.Run(ctx); err != nil {
			t.Errorf("tunnel Run: %v", err)
		}
	}()
	go sw.Run(ctx)
	client, err := net.DialUDP("udp", nil, net.UDPAddrFromAddrPort(tun.LocalAddr()))
	if err != nil {
		t.Fatalf("client socket: %v", err)
	}
	h := &tunnelHarness{sw: sw, tun: tun, client: client, cancel: cancel, done: done}
	t.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Error("tunnel Run did not return after cancellation")
		}
		client.Close()
		tun.Close()
		sw.Close()
	})
	return h
}

// send marshals one TCP packet for the VIP from client source port src and
// writes it to the tunnel, failing the test on any error.
func (h *tunnelHarness) send(t *testing.T, vip VIP, src uint16, flags uint8) {
	t.Helper()
	if err := h.write(vip, src, flags); err != nil {
		t.Fatalf("client send: %v", err)
	}
}

// write is send returning its error instead of failing the test, for
// goroutines other than the test's own.
func (h *tunnelHarness) write(vip VIP, src uint16, flags uint8) error {
	p := Packet{
		Tuple: FiveTuple{
			Src:     netip.MustParseAddr("10.1.0.1"),
			Dst:     vip.Addr,
			SrcPort: src,
			DstPort: vip.Port,
			Proto:   TCP,
		},
		TCPFlags: flags,
		Payload:  []byte("payload"),
	}
	raw, err := p.Marshal(nil)
	if err != nil {
		return fmt.Errorf("marshal: %w", err)
	}
	_, err = h.client.Write(raw)
	return err
}

// waitForwarded polls until the tunnel has forwarded at least want packets
// (UDP on loopback does not reorder or drop in practice, but the tunnel is
// asynchronous, so counts need a grace period).
func (h *tunnelHarness) waitForwarded(t *testing.T, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := h.tun.Stats()
		if st.Forwarded+st.Dropped >= want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout: forwarded+dropped = %+v, want >= %d", h.tun.Stats(), want)
}

// waitReceived polls until the mock DIPs have drained want packets off
// their sockets. The tunnel's Forwarded counter runs ahead of the backend
// goroutines (a send is counted when written, not when the listener reads
// it), so count assertions must wait for the consumers, especially when
// the whole test suite is loading the host.
func waitReceived(t *testing.T, dips []*mockDIP, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		got := 0
		for _, d := range dips {
			d.mu.Lock()
			for _, n := range d.byConn {
				got += n
			}
			got += d.badPkts
			d.mu.Unlock()
		}
		if got >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timeout: backends drained %d packets, want %d", got, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestTunnelLoopbackPCC is the end-to-end wire test: client -> tunnel ->
// mock DIPs over real UDP sockets, with a DIP pool update landing in the
// middle of traffic. Per-connection consistency must hold on the wire:
// every connection's packets arrive at exactly one backend, across the
// update, including connections pinned to the DIP being removed.
func TestTunnelLoopbackPCC(t *testing.T) {
	var wg sync.WaitGroup
	dips := make([]*mockDIP, 3)
	for i := range dips {
		dips[i] = startMockDIP(t, &wg, rewriteCheck)
	}
	defer func() {
		for _, d := range dips {
			d.conn.Close()
		}
		wg.Wait()
	}()

	cfg := Defaults(10_000)
	sw, err := NewSwitch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vip := NewVIP("20.0.0.1", 80, TCP)
	pool := []DIP{dips[0].addr, dips[1].addr, dips[2].addr}
	if err := sw.AddVIP(sw.Now(), vip, pool); err != nil {
		t.Fatal(err)
	}
	h := startTunnel(t, sw, TunnelRewrite)

	const (
		preConns  = 30
		postConns = 30
		acks      = 3
		basePort  = uint16(20000)
	)
	var sent uint64

	// Phase 1: open connections and give each a few established packets.
	for c := 0; c < preConns; c++ {
		h.send(t, vip, basePort+uint16(c), FlagSYN)
		sent++
	}
	for a := 0; a < acks; a++ {
		for c := 0; c < preConns; c++ {
			h.send(t, vip, basePort+uint16(c), FlagACK)
			sent++
		}
	}
	h.waitForwarded(t, sent)

	// Mid-traffic pool update: remove a backend with PCC. Established
	// connections pinned to it must keep flowing to it.
	if err := sw.RemoveDIP(h.sw.Now(), vip, dips[2].addr); err != nil {
		t.Fatalf("RemoveDIP: %v", err)
	}

	// Phase 2: established connections keep talking, new ones arrive.
	for a := 0; a < acks; a++ {
		for c := 0; c < preConns; c++ {
			h.send(t, vip, basePort+uint16(c), FlagACK)
			sent++
		}
	}
	for c := 0; c < postConns; c++ {
		h.send(t, vip, basePort+uint16(preConns+c), FlagSYN)
		sent++
		for a := 0; a < acks; a++ {
			h.send(t, vip, basePort+uint16(preConns+c), FlagACK)
			sent++
		}
	}
	h.waitForwarded(t, sent)

	st := h.tun.Stats()
	if st.Undecodable != 0 {
		t.Errorf("tunnel reported %d undecodable payloads", st.Undecodable)
	}
	if st.Dropped != 0 {
		t.Errorf("tunnel dropped %d packets by verdict", st.Dropped)
	}
	waitReceived(t, dips, int(st.Forwarded))

	// PCC on the wire: no connection may appear at more than one backend.
	owner := make(map[uint16]int)
	violations := 0
	received := 0
	for i, d := range dips {
		d.mu.Lock()
		if d.badPkts != 0 {
			t.Errorf("dip %d saw %d packets failing the rewrite check", i, d.badPkts)
		}
		for src, n := range d.byConn {
			received += n
			if prev, seen := owner[src]; seen && prev != i {
				violations++
				t.Errorf("PCC violation: connection src=%d seen at dip %d and dip %d", src, prev, i)
			} else {
				owner[src] = i
			}
		}
		d.mu.Unlock()
	}
	if violations != 0 {
		t.Fatalf("%d PCC violations across pool update", violations)
	}
	if len(owner) != preConns+postConns {
		t.Errorf("backends saw %d distinct connections, want %d", len(owner), preConns+postConns)
	}
	if uint64(received) != st.Forwarded {
		t.Errorf("backends received %d packets, tunnel forwarded %d", received, st.Forwarded)
	}
	// New connections must avoid the removed backend.
	dips[2].mu.Lock()
	for src := range dips[2].byConn {
		if src >= basePort+preConns {
			t.Errorf("post-update connection src=%d landed on the removed dip", src)
		}
	}
	dips[2].mu.Unlock()
}

// TestTunnelLoopbackIPIP drives the encapsulating mode end to end: the
// backend receives IP-in-IP datagrams whose outer header names the LB and
// the DIP and whose inner packet still carries the VIP destination (DSR).
func TestTunnelLoopbackIPIP(t *testing.T) {
	self := netip.MustParseAddr("192.0.2.1")
	var wg sync.WaitGroup
	vipAddr := netip.MustParseAddr("20.0.0.1")
	d := startMockDIP(t, &wg, func(d *mockDIP, pkt []byte) (uint16, bool) {
		inner, outerSrc, outerDst, err := netproto.DecapIPIP(pkt)
		if err != nil || outerSrc != self || outerDst != d.addr.Addr() {
			return 0, false
		}
		var f netproto.Frame
		if err := netproto.ParseFrame(inner, &f); err != nil {
			return 0, false
		}
		if f.Tuple.Dst != vipAddr || f.Tuple.DstPort != 80 {
			return f.Tuple.SrcPort, false
		}
		return f.Tuple.SrcPort, true
	})
	defer func() {
		d.conn.Close()
		wg.Wait()
	}()

	sw, err := NewSwitch(Defaults(10_000))
	if err != nil {
		t.Fatal(err)
	}
	vip := NewVIP("20.0.0.1", 80, TCP)
	if err := sw.AddVIP(sw.Now(), vip, []DIP{d.addr}); err != nil {
		t.Fatal(err)
	}
	h := startTunnel(t, sw, TunnelIPIP)

	const conns = 10
	var sent uint64
	for c := 0; c < conns; c++ {
		h.send(t, vip, 30000+uint16(c), FlagSYN)
		h.send(t, vip, 30000+uint16(c), FlagACK)
		sent += 2
	}
	h.waitForwarded(t, sent)

	deadline := time.Now().Add(10 * time.Second)
	for {
		d.mu.Lock()
		got, bad := len(d.byConn), d.badPkts
		d.mu.Unlock()
		if bad != 0 {
			t.Fatalf("%d packets failed the IPIP check", bad)
		}
		if got == conns {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("backend saw %d connections, want %d", got, conns)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestTunnelGracefulShutdown cancels the tunnel in the middle of a traffic
// stream: Run must return promptly, nothing may panic or race, and the
// already-read batch still transmits (graceful, not abrupt).
func TestTunnelGracefulShutdown(t *testing.T) {
	var wg sync.WaitGroup
	d := startMockDIP(t, &wg, rewriteCheck)
	defer func() {
		d.conn.Close()
		wg.Wait()
	}()

	sw, err := NewSwitch(Defaults(10_000))
	if err != nil {
		t.Fatal(err)
	}
	vip := NewVIP("20.0.0.1", 80, TCP)
	if err := sw.AddVIP(sw.Now(), vip, []DIP{d.addr}); err != nil {
		t.Fatal(err)
	}
	h := startTunnel(t, sw, TunnelRewrite)

	// Traffic source: hammer the tunnel until told to stop. Once cancel
	// closes the tunnel socket, loopback answers the next datagram with a
	// port-unreachable that a later write reports as "connection refused";
	// the stream ends at the first write error after cancel. An error
	// before cancel is a real failure.
	stop := make(chan struct{})
	var cancelled atomic.Bool
	var senderWG sync.WaitGroup
	senderWG.Add(1)
	defer func() {
		close(stop)
		senderWG.Wait()
	}()
	go func() {
		defer senderWG.Done()
		src := uint16(40000)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := h.write(vip, src, FlagSYN); err != nil {
				if !cancelled.Load() {
					t.Errorf("client send before cancel: %v", err)
				}
				return
			}
			src++
		}
	}()

	// Let traffic flow, then cancel mid-stream.
	deadline := time.Now().Add(5 * time.Second)
	for h.tun.Stats().Forwarded < 100 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if h.tun.Stats().Forwarded == 0 {
		t.Fatal("no traffic flowed before shutdown")
	}
	cancelled.Store(true)
	h.cancel()
	select {
	case <-h.done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after mid-traffic cancellation")
	}

	st := h.tun.Stats()
	if st.Forwarded == 0 {
		t.Fatal("nothing forwarded")
	}
	t.Logf("shutdown stats: %+v", st)
}
