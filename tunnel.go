package silkroad

// The UDP-encap tunnel: the switch's first real I/O loop. Each UDP
// datagram's payload is one raw IPv4/IPv6 packet (the encapsulation a ToR
// would feed a software LB), read in batches into reusable frame buffers,
// parsed once, pushed through ProcessFramesInto, and transmitted to the chosen
// DIP — rewritten in place (DNAT) or IP-in-IP encapsulated (DSR), both
// straight off the frame's cached offsets. The loop is unprivileged (plain
// UDP sockets, no raw-socket capability) and allocation-free in steady
// state, which is what lets CI run a real client → LB → backend path.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataplane"
	"repro/internal/netproto"
)

// Tunnel forwarding modes.
const (
	// TunnelRewrite forwards by rewriting the packet's destination to the
	// DIP in place (DNAT); the backend sees its own address.
	TunnelRewrite = "rewrite"
	// TunnelIPIP forwards by IP-in-IP encapsulating toward the DIP; the
	// inner packet keeps the VIP destination (direct server return).
	TunnelIPIP = "ipip"
)

// TunnelConfig parameterizes a Tunnel.
type TunnelConfig struct {
	// Switch is the load balancer the tunnel feeds. Required.
	Switch *Switch
	// Listen is the UDP address receiving encapsulated packets
	// (e.g. ":9000"; ":0" or "127.0.0.1:0" pick a free port).
	Listen string
	// Mode selects the TX action: TunnelRewrite (default) or TunnelIPIP.
	Mode string
	// Self is the outer source address for TunnelIPIP.
	Self netip.Addr
	// BatchSize bounds how many datagrams one read pass collects before
	// processing (default 64). Bigger batches amortize pipe hand-off under
	// load; the first read always blocks, so idle tunnels add no latency.
	BatchSize int
	// MaxPacket bounds one datagram's payload (default 65535).
	MaxPacket int
	// BatchWait bounds how long the read loop waits for follow-up
	// datagrams after the first of a batch (default 200µs). Zero keeps the
	// default; latency-sensitive callers can shrink it.
	BatchWait time.Duration
	// Logf receives operational log lines (nil discards them).
	Logf func(format string, args ...any)
}

// TunnelStats is a snapshot of the tunnel's datagram counters.
type TunnelStats struct {
	RxPackets   uint64 // datagrams received
	RxBytes     uint64 // payload bytes received
	Undecodable uint64 // payloads that were not parseable IP packets
	Forwarded   uint64 // packets transmitted to a DIP
	Dropped     uint64 // verdict drops (no VIP, meter, empty pool)
	TxErrors    uint64 // socket send failures
}

// Tunnel is a running UDP-encap forwarding loop over one Switch. Create
// with NewTunnel, drive with Run, stop by cancelling Run's context (or
// Close). Stats may be read concurrently.
type Tunnel struct {
	sw        *Switch
	mode      string
	self      netip.Addr
	batch     int
	maxPkt    int
	batchWait time.Duration
	logf      func(format string, args ...any)

	rx *net.UDPConn // ingress (encapsulated packets in)
	tx *net.UDPConn // egress (forwarded packets out)

	closeOnce sync.Once

	rxPackets   atomic.Uint64
	rxBytes     atomic.Uint64
	undecodable atomic.Uint64
	forwarded   atomic.Uint64
	dropped     atomic.Uint64
	txErrors    atomic.Uint64
}

// NewTunnel binds the tunnel's sockets and prepares its buffers. The
// returned tunnel is not forwarding yet — call Run.
func NewTunnel(cfg TunnelConfig) (*Tunnel, error) {
	if cfg.Switch == nil {
		return nil, errors.New("silkroad: TunnelConfig.Switch is required")
	}
	switch cfg.Mode {
	case "", TunnelRewrite, TunnelIPIP:
	default:
		return nil, fmt.Errorf("silkroad: unknown tunnel mode %q", cfg.Mode)
	}
	if cfg.Mode == TunnelIPIP && !cfg.Self.Is4() {
		return nil, errors.New("silkroad: tunnel mode ipip needs an IPv4 Self address")
	}
	t := &Tunnel{
		sw:        cfg.Switch,
		mode:      cfg.Mode,
		self:      cfg.Self,
		batch:     cfg.BatchSize,
		maxPkt:    cfg.MaxPacket,
		batchWait: cfg.BatchWait,
		logf:      cfg.Logf,
	}
	if t.mode == "" {
		t.mode = TunnelRewrite
	}
	if t.batch <= 0 {
		t.batch = 64
	}
	if t.maxPkt <= 0 {
		t.maxPkt = 65535
	}
	if t.batchWait <= 0 {
		t.batchWait = 200 * time.Microsecond
	}
	if t.logf == nil {
		t.logf = func(string, ...any) {}
	}
	addr, err := net.ResolveUDPAddr("udp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("silkroad: tunnel listen address: %w", err)
	}
	rx, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("silkroad: tunnel listen: %w", err)
	}
	tx, err := net.ListenUDP("udp", nil)
	if err != nil {
		rx.Close()
		return nil, fmt.Errorf("silkroad: tunnel egress socket: %w", err)
	}
	t.rx, t.tx = rx, tx
	return t, nil
}

// LocalAddr returns the ingress socket's bound address — the address
// clients encapsulate toward.
func (t *Tunnel) LocalAddr() netip.AddrPort {
	return t.rx.LocalAddr().(*net.UDPAddr).AddrPort()
}

// Close releases the tunnel's sockets, unblocking a concurrent Run. Safe
// to call more than once.
func (t *Tunnel) Close() error {
	t.closeOnce.Do(func() {
		t.rx.Close()
		t.tx.Close()
	})
	return nil
}

// Stats returns a snapshot of the tunnel's counters.
func (t *Tunnel) Stats() TunnelStats {
	return TunnelStats{
		RxPackets:   t.rxPackets.Load(),
		RxBytes:     t.rxBytes.Load(),
		Undecodable: t.undecodable.Load(),
		Forwarded:   t.forwarded.Load(),
		Dropped:     t.dropped.Load(),
		TxErrors:    t.txErrors.Load(),
	}
}

// Run executes the forwarding loop until ctx is cancelled (or Close is
// called), then returns nil. Packets already read when cancellation lands
// are still processed and transmitted — shutdown is graceful, not abrupt
// — but the tunnel is finished once Run returns (cancellation closes the
// ingress socket); build a new Tunnel to forward again. All buffers are
// allocated here once; the steady-state loop reads, parses, balances and
// transmits without allocating.
func (t *Tunnel) Run(ctx context.Context) error {
	// Cancellation closes the ingress socket: every blocked or future read
	// returns net.ErrClosed, with no race against deadline manipulation.
	// The egress socket stays open so the batch in flight still transmits.
	stop := context.AfterFunc(ctx, func() { t.rx.Close() })
	defer stop()

	bufs := make([][]byte, t.batch)
	for i := range bufs {
		bufs[i] = make([]byte, t.maxPkt)
	}
	frames := make([]netproto.Frame, t.batch)
	results := make([]Result, t.batch)
	var encBuf []byte // TunnelIPIP TX scratch, reused across packets

	for {
		n, err := t.fill(ctx, bufs, frames)
		if n > 0 {
			now := t.sw.Now()
			t.sw.ProcessFramesInto(now, frames[:n], results[:n])
			t.transmit(frames[:n], results[:n], &encBuf)
		}
		if err != nil {
			if ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
	}
}

// fill reads one batch: a blocking read for the first datagram, then a
// short-deadline drain for follow-ups until the batch is full or the wire
// goes quiet. Unparseable payloads are counted and their slots reused, so
// frames[:n] is dense. The returned error (if any) ends the loop after the
// collected frames are processed.
func (t *Tunnel) fill(ctx context.Context, bufs [][]byte, frames []netproto.Frame) (int, error) {
	n := 0
	for n < t.batch {
		if n == 0 {
			// Idle: block until traffic arrives. Cancellation closes the
			// socket (see Run), so this cannot block past shutdown.
			t.rx.SetReadDeadline(time.Time{})
		} else {
			t.rx.SetReadDeadline(time.Now().Add(t.batchWait))
		}
		sz, _, err := t.rx.ReadFromUDPAddrPort(bufs[n])
		if err != nil {
			var ne net.Error
			if n > 0 && errors.As(err, &ne) && ne.Timeout() {
				return n, nil // batch closed by silence, not failure
			}
			return n, err
		}
		t.rxPackets.Add(1)
		t.rxBytes.Add(uint64(sz))
		if perr := netproto.ParseFrame(bufs[n][:sz], &frames[n]); perr != nil {
			t.undecodable.Add(1)
			t.logf("silkroad: tunnel: undecodable payload (%d B): %v", sz, perr)
			continue
		}
		n++
	}
	return n, nil
}

// transmit applies each verdict on the TX side: in-place destination
// rewrite or IP-in-IP encapsulation via the frame's cached offsets, then
// one UDP send to the DIP.
func (t *Tunnel) transmit(frames []netproto.Frame, results []Result, encBuf *[]byte) {
	for i := range frames {
		res := &results[i]
		if res.Verdict != dataplane.VerdictForward {
			t.dropped.Add(1)
			continue
		}
		f := &frames[i]
		payload := f.Data
		if t.mode == TunnelIPIP {
			enc, err := netproto.EncapIPIP((*encBuf)[:0], t.self, res.DIP.Addr(), f.Data)
			if err != nil {
				t.txErrors.Add(1)
				t.logf("silkroad: tunnel: encap for %v: %v", res.DIP, err)
				continue
			}
			*encBuf = enc
			payload = enc
		} else if err := f.RewriteDst(res.DIP); err != nil {
			t.txErrors.Add(1)
			t.logf("silkroad: tunnel: rewrite for %v: %v", res.DIP, err)
			continue
		}
		if _, err := t.tx.WriteToUDPAddrPort(payload, res.DIP); err != nil {
			t.txErrors.Add(1)
			t.logf("silkroad: tunnel: forward to %v: %v", res.DIP, err)
			continue
		}
		t.forwarded.Add(1)
	}
}
