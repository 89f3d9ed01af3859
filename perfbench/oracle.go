package main

import (
	"encoding/binary"
	"net/netip"

	silkroad "repro"
	"repro/internal/netproto"
)

// Addressing. Every address the benchmark uses is derived from an index,
// so the checks below decode a DIP back to (VIP, DIP) with a few byte
// comparisons and no map: VIP v is 20.0.v.1:80, DIP d of VIP v is
// <prefix>.v.(d+1):<port>, and connection c belongs to VIP c % vips.

const vipPort = 80

func vipAddr(v int) silkroad.VIP {
	return silkroad.VIP{Addr: netip.AddrFrom4([4]byte{20, 0, byte(v), 1}), Port: vipPort, Proto: netproto.ProtoTCP}
}

// connTuple derives connection c's client tuple from the seed through a
// bijection on 32 bits, so distinct connections never share a tuple: the
// low 24 bits pick the source address in 10/8, the high 8 the port.
func connTuple(seed uint64, c int, vip silkroad.VIP) silkroad.FiveTuple {
	x := uint32(c) ^ uint32(seed)
	x *= 0x9e3779b1
	x ^= x >> 15
	x *= 0x85ebca77
	x ^= x >> 13
	x += uint32(seed >> 32)
	return silkroad.FiveTuple{
		Src:     netip.AddrFrom4([4]byte{10, byte(x >> 16), byte(x >> 8), byte(x)}),
		Dst:     vip.Addr,
		SrcPort: 1024 + uint16(x>>24),
		DstPort: vip.Port,
		Proto:   netproto.ProtoTCP,
	}
}

// oracle is the exact-tuple PCC shadow: it remembers the first DIP each
// connection was forwarded to and flags a later packet of that connection
// sent elsewhere, unless the first DIP has been removed from its pool
// since the connection was first seen (then moving is allowed).
type oracle struct {
	vips, dips int
	prefix     [2]byte
	port       uint16

	first     []uint16 // per connection: 1 + global DIP index, 0 = unseen
	seenAt    []uint64 // per connection: tick of first sight
	removedAt []uint64 // per global DIP index: tick of its latest removal
	tick      uint64

	pcc   uint64 // PCC violations
	stray uint64 // forwarded to a DIP outside the VIP's pool history
}

func newOracle(conns, vips, dips int, prefix [2]byte, port uint16) *oracle {
	return &oracle{
		vips: vips, dips: dips, prefix: prefix, port: port,
		first:     make([]uint16, conns),
		seenAt:    make([]uint64, conns),
		removedAt: make([]uint64, vips*dips),
	}
}

// dip returns the address of DIP d of VIP v.
func (o *oracle) dip(v, d int) silkroad.DIP {
	return netip.AddrPortFrom(netip.AddrFrom4([4]byte{o.prefix[0], o.prefix[1], byte(v), byte(d + 1)}), o.port)
}

func (o *oracle) pool(v int) []silkroad.DIP {
	p := make([]silkroad.DIP, o.dips)
	for d := range p {
		p[d] = o.dip(v, d)
	}
	return p
}

// index decodes a DIP to its global index v*dips+d; ok is false for an
// address no VIP's pool ever held. Every pool in this benchmark only ever
// holds its own initial DIPs, so that set is the pool history.
func (o *oracle) index(a netip.Addr, port uint16) (v, g int, ok bool) {
	if !a.Is4() || port != o.port {
		return 0, 0, false
	}
	b := a.As4()
	if b[0] != o.prefix[0] || b[1] != o.prefix[1] || int(b[2]) >= o.vips || b[3] == 0 || int(b[3]) > o.dips {
		return 0, 0, false
	}
	return int(b[2]), int(b[2])*o.dips + int(b[3]) - 1, true
}

// removed records that DIP d of VIP v left its pool.
func (o *oracle) removed(v, d int) {
	o.tick++
	o.removedAt[v*o.dips+d] = o.tick
}

// forwarded records one forwarded packet of connection c and reports
// whether it went to a correct DIP.
func (o *oracle) forwarded(c int, a netip.Addr, port uint16) bool {
	o.tick++
	v, g, ok := o.index(a, port)
	if !ok || v != c%o.vips {
		o.stray++
		return false
	}
	switch f := int(o.first[c]) - 1; {
	case f < 0:
		o.first[c] = uint16(g + 1)
		o.seenAt[c] = o.tick
	case f != g && o.removedAt[f] < o.seenAt[c]:
		o.pcc++
		return false
	}
	return true
}

// checkRewrite reports whether a forwarded frame's bytes were rewritten to
// dip with valid IPv4 header and TCP checksums.
func checkRewrite(f *silkroad.Frame, dip silkroad.DIP) bool {
	p := f.Data
	if len(p) < f.L4+20 || f.Tuple.Proto != netproto.ProtoTCP {
		return false
	}
	want := dip.Addr().As4()
	if [4]byte(p[16:20]) != want || binary.BigEndian.Uint16(p[f.L4+2:]) != dip.Port() {
		return false
	}
	if fold(sum(p[:f.L4], 0)) != 0xffff {
		return false
	}
	seg := p[f.L4:]
	ph := sum(p[12:20], 0) + uint32(netproto.ProtoTCP) + uint32(len(seg))
	return fold(sum(seg, ph)) == 0xffff
}

// sum adds b as big-endian 16-bit words onto acc (ones'-complement
// arithmetic, folded later).
func sum(b []byte, acc uint32) uint32 {
	for len(b) >= 2 {
		acc += uint32(b[0])<<8 | uint32(b[1])
		b = b[2:]
	}
	if len(b) == 1 {
		acc += uint32(b[0]) << 8
	}
	return acc
}

func fold(acc uint32) uint16 {
	for acc > 0xffff {
		acc = acc>>16 + acc&0xffff
	}
	return uint16(acc)
}
