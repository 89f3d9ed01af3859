package main

import (
	silkroad "repro"
)

// statsDelta is after - before for every counter the timed phase moves.
// MaxInsertQueue is a running maximum, not a counter; it is left as is.
func statsDelta(before, after silkroad.Stats) silkroad.Stats {
	a, b := after.Dataplane, before.Dataplane
	a.Packets -= b.Packets
	a.NoVIP -= b.NoVIP
	a.NoBackend -= b.NoBackend
	a.MeterDrops -= b.MeterDrops
	a.ConnHits -= b.ConnHits
	a.ConnMisses -= b.ConnMisses
	a.TransitChecks -= b.TransitChecks
	a.TransitHits -= b.TransitHits
	a.TransitInserts -= b.TransitInserts
	a.SYNRedirectConn -= b.SYNRedirectConn
	a.SYNRedirectTransit -= b.SYNRedirectTransit
	a.LearnOffers -= b.LearnOffers
	a.ForwardedOldVersion -= b.ForwardedOldVersion
	a.DegradedPackets -= b.DegradedPackets
	a.DegradedTransitions -= b.DegradedTransitions

	c, d := after.Controlplane, before.Controlplane
	c.Inserted -= d.Inserted
	c.DuplicateLearns -= d.DuplicateLearns
	c.Overflows -= d.Overflows
	c.DigestFPsResolved -= d.DigestFPsResolved
	c.BloomFPsResolved -= d.BloomFPsResolved
	c.RetransmittedSYNs -= d.RetransmittedSYNs
	c.UpdatesRequested -= d.UpdatesRequested
	c.UpdatesCompleted -= d.UpdatesCompleted
	c.UpdatesCoalesced -= d.UpdatesCoalesced
	c.VersionAllocs -= d.VersionAllocs
	c.VersionReuses -= d.VersionReuses
	c.VersionExhaustions -= d.VersionExhaustions
	c.ConnsEnded -= d.ConnsEnded
	c.AgedOut -= d.AgedOut
	c.ResilientFailovers -= d.ResilientFailovers
	c.ResilientRecoveries -= d.ResilientRecoveries
	c.InsertRetries -= d.InsertRetries
	c.InsertSheds -= d.InsertSheds
	c.InsertDelaySum -= d.InsertDelaySum
	return silkroad.Stats{Dataplane: a, Controlplane: c}
}

// counterLayers sets the per-layer figures that come from the switch's own
// counters over the timed phase.
func counterLayers(m metrics, d silkroad.Stats, occupancy float64) {
	dp, cp := d.Dataplane, d.Controlplane
	pkts := float64(dp.Packets)
	m.set("ctrlplane.learn_useful_ratio", "ratio", ratio(float64(cp.Inserted), float64(dp.LearnOffers)))
	m.set("ctrlplane.insert_retries", "count", float64(cp.InsertRetries))
	m.set("ctrlplane.insert_sheds", "count", float64(cp.InsertSheds))
	m.set("ctrlplane.insert_delay_mean_us", "us", ratio(float64(cp.InsertDelaySum), float64(cp.Inserted))/1e3)
	m.set("ctrlplane.updates_completed_ratio", "ratio", ratio(float64(cp.UpdatesCompleted), float64(cp.UpdatesRequested)))
	m.set("cuckoo.digest_fps_resolved", "count", float64(cp.DigestFPsResolved))
	m.set("bloom.fps_resolved", "count", float64(cp.BloomFPsResolved))
	m.set("dataplane.transit_hits", "count", float64(dp.TransitHits))
	m.set("dataplane.conn_hit_ratio", "ratio", ratio(float64(dp.ConnHits), pkts))
	// A SYN redirected by the TransitTable is already a ConnTable miss.
	m.set("dataplane.slowpath_share", "ratio", ratio(float64(dp.ConnMisses+dp.SYNRedirectConn), pkts))
	m.set("cuckoo.occupancy", "ratio", occupancy)
}

// spanLayers sets the per-layer figures of a traced pipeline.
func spanLayers(m metrics, sp *spans) {
	per := func(d int64, n int64) float64 { return ratio(float64(d), float64(n)) }
	m.set("netproto.parse_ns", "ns", per(sp.parse.Nanoseconds(), sp.packets))
	m.set("ctrlplane.advance_ns", "ns", per(sp.advance.Nanoseconds(), sp.packets))
	m.set("dataplane.process_ns", "ns", per(sp.process.Nanoseconds(), sp.packets))
	m.set("ctrlplane.handle_ns", "ns", per(sp.handle.Nanoseconds(), sp.packets))
	m.set("netproto.rewrite_ns", "ns", per(sp.rewrite.Nanoseconds(), sp.rewrites))
	m.set("ctrlplane.insert_queue_max", "count", float64(sp.queueMax))
	m.set("learnfilter.pending_max", "count", float64(sp.pendingMax))
}

// usageLayers sets the per-packet CPU figures of a timed phase.
func usageLayers(m metrics, u usage, allocs uint64, packets int64) {
	n := float64(packets)
	m.set("tunnel.user_us_per_pkt", "us", ratio(float64(u.User.Nanoseconds())/1e3, n))
	m.set("tunnel.sys_us_per_pkt", "us", ratio(float64(u.Sys.Nanoseconds())/1e3, n))
	m.set("tunnel.ctx_switches_per_pkt", "count", ratio(float64(u.Ctx), n))
	m.set("silkroad.allocs_per_pkt", "count", ratio(float64(allocs), n))
}
