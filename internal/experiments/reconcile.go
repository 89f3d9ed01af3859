package experiments

// Reconcile soak: declarative spec churn rolled across a 3-switch cluster
// while traffic flows, with a mid-rollout switch failure (writes against
// it fail, the rollout rolls back and retries until the switch is
// restored), injected control-plane faults (CPU stalls, brownouts, digest
// loss) from internal/faults, and one out-of-band pool mutation repaired
// by drift detection. Asserts the controller contract: convergence within
// a bounded number of rounds after the last generation, zero PCC
// violations against the exact-tuple shadow, rollback + retry + drift all
// exercised, and an idempotent re-apply issuing zero writes. Emits
// RECONCILE_soak.json; the same seed must reproduce it byte for byte.

import (
	"fmt"
	"net/netip"

	"repro/internal/cluster"
	"repro/internal/faults"
	"repro/internal/intent"
	"repro/internal/netproto"
	"repro/internal/simtime"
	"repro/internal/telemetry"
)

// Soak shape, in ticks of recTick virtual time. Traffic arrives in bursts
// (recBurstLen on, then quiet until the period repeats) so the rolling
// drain gate — next switch only after the previous one's PendingWork hits
// zero — sees real quiet windows between real load, like a ToR between
// connection storms.
const (
	recTick      = 100 * simtime.Microsecond
	recLoadTicks = 1200 // arrivals for 120 ms
	recLifeTicks = 600  // each flow lives 60 ms
	recStride    = 16   // live flows revisit the data path every 16 ticks
	recMembers   = 3
	recPerTick   = 2   // SYNs per burst tick
	recBurstLen  = 20  // ticks of arrivals per burst
	recBurstGap  = 80  // burst period (quiet for recBurstGap-recBurstLen)
	recGenEvery  = 200 // a new spec generation every 20 ms
	recGens      = 5   // generations 2..6 land during the load phase
	recFailAt    = 350 // switch 1 fails at 35 ms (mid-churn)
	recRestoreAt = 850 // and reboots empty at 85 ms
	recDriftAt   = 1300
	recConverge  = 400 // round budget for the final convergence loop
)

// ReconcileReport is the machine-readable outcome written to
// RECONCILE_soak.json. Everything derives from virtual time and seeded
// randomness: same (scale, seed) ⇒ identical bytes.
type ReconcileReport struct {
	Scale   float64 `json:"scale"`
	Seed    int64   `json:"seed"`
	Members int     `json:"members"`

	FinalGeneration uint64 `json:"final_generation"`

	FlowsStarted     int    `json:"flows_started"`
	FlowsEstablished int    `json:"flows_established"`
	Packets          uint64 `json:"packets"`
	Forwarded        uint64 `json:"forwarded"`

	Rounds        uint64 `json:"reconcile_rounds"`
	Applies       uint64 `json:"reconcile_applies"`
	Noops         uint64 `json:"reconcile_noops"`
	Retries       uint64 `json:"reconcile_retries"`
	Rollbacks     uint64 `json:"reconcile_rollbacks"`
	Errors        uint64 `json:"reconcile_errors"`
	DriftDetected uint64 `json:"drift_detected"`
	Writes        uint64 `json:"target_writes"`

	FaultsInjected  uint64            `json:"faults_injected"`
	FaultsByKind    map[string]uint64 `json:"faults_by_kind"`
	FaultsRemaining int               `json:"faults_remaining"`

	BucketsRedirected uint64 `json:"buckets_redirected"`
	RedirectedFlows   int    `json:"redirected_flows"`
	PCCViolations     int    `json:"pcc_violations"`

	RoundsToConverge int    `json:"rounds_to_converge"`
	ConvergedAtEnd   bool   `json:"converged_at_end"`
	PoolMismatches   int    `json:"final_pool_mismatches"`
	IdempotentWrites uint64 `json:"idempotent_reapply_writes"`

	soakVerdict
}

// clusterFaultTarget adapts the deployment to the fault injector: "pipe"
// indices are cluster members. Accessors are re-read per call so faults
// land on the fresh planes after a RestoreSwitch.
type clusterFaultTarget struct{ c *cluster.Cluster }

func (t clusterFaultTarget) NumPipes() int { return t.c.Switches() }

func (t clusterFaultTarget) StallCPU(now simtime.Time, m int, d simtime.Duration) {
	t.c.Member(m).StallCPU(now, d)
}

func (t clusterFaultTarget) SetInsertRateScale(m int, scale float64) {
	t.c.Member(m).SetInsertRateScale(scale)
}

func (t clusterFaultTarget) SetConnTableLimit(m int, limit int) {
	t.c.Dataplane(m).SetConnTableLimit(limit)
}

func (t clusterFaultTarget) SetLearnLoss(m int, rate float64, seed uint64) {
	t.c.Dataplane(m).LearnFilter().SetLoss(rate, seed)
}

// recPoolFor returns generation g's DIP pool: the base pool with one slot
// swapped for a generation-specific DIP, so every rollout is exactly one
// pool update per switch.
func recPoolFor(g int) []string {
	dips := expPool(6)
	out := make([]string, len(dips))
	for i := range dips {
		out[i] = dips[i].String()
	}
	out[g%len(out)] = netip.AddrPortFrom(
		netip.AddrFrom4([4]byte{10, 9, 0, byte(g)}), 20).String()
	return out
}

// recSpecFor builds generation g's spec (Generation left 0: auto-assigned
// last+1 on apply).
func recSpecFor(g int) *intent.ClusterSpec {
	return &intent.ClusterSpec{
		Version: intent.SpecVersion,
		VIPs: []intent.VIPSpec{{
			VIP:  "20.0.0.1:80",
			Pool: recPoolFor(g),
		}},
	}
}

// recFlow is one connection's PCC bookkeeping: the member and shadow
// version pinned after establishment. A flow observed on a different
// member at any later revisit was redirected by the ECMP spray reacting
// to the switch failure; §7 accepts those breaking PCC, so they are
// counted separately and excluded from the violation check. The restored
// member comes back cold and takes no traffic (rejoining it warm is the
// upgrade soak's business), so a redirect is permanent here.
type recFlow struct {
	member     int
	version    uint32
	vset       bool
	redirected bool
}

// RunReconcileSoak drives the declarative-churn soak once and returns its
// report. Same (scale, seed) ⇒ identical report.
func RunReconcileSoak(scale float64, seed int64) (*ReconcileReport, error) {
	connTarget := int(2048 * scale)
	if connTarget < 1024 {
		connTarget = 1024
	}
	ccfg := cluster.DefaultConfig(recMembers, connTarget)
	ccfg.Dataplane.Seed = uint64(seed)
	clu, err := cluster.New(ccfg)
	if err != nil {
		return nil, err
	}

	reg := telemetry.NewRegistry()
	rc := intent.NewCluster(clu.Fleet(), intent.FleetConfig{
		Config: intent.Config{
			BaseBackoff: 200 * simtime.Microsecond,
			MaxBackoff:  2 * simtime.Millisecond,
			MaxRetries:  3,
			Tracer:      reg,
		},
		RolloutBackoff: simtime.Millisecond,
	})

	rep := &ReconcileReport{Scale: scale, Seed: seed, Members: recMembers}
	vip := expVIP()

	// Generation 1 converges before traffic starts (the bootstrap apply).
	if err := rc.SetSpec(0, recSpecFor(1)); err != nil {
		return nil, err
	}
	for i := 0; i < 4*recMembers && !rc.Step(0); i++ {
	}
	if !rc.Converged() {
		return nil, fmt.Errorf("reconcile: bootstrap never converged")
	}

	// Control-plane faults from internal/faults, landing inside the churn
	// window: CPU stalls and brownouts slow the very insertions the drain
	// gate waits on; digest loss stresses re-learning.
	ms := func(n int) simtime.Duration { return simtime.Duration(n) * simtime.Millisecond }
	plan := faults.Generate(faults.GenConfig{
		Seed:  uint64(seed),
		Start: simtime.Time(0).Add(ms(10)),
		End:   simtime.Time(0).Add(ms(100)),
		Pipes: recMembers,

		CPUStalls: 2, StallFor: ms(3),
		Brownouts: 2, BrownoutScale: 0.25, BrownoutFor: ms(10),
		DigestLossWindows: 1, DigestLossRate: 0.2, DigestLossFor: ms(10),
	})
	inj := faults.NewInjector(plan, clusterFaultTarget{clu})

	tickTime := func(t int) simtime.Time { return simtime.Time(int64(t) * int64(recTick)) }
	var flows []recFlow
	firstLive := 0
	gen := 1

	shadow := func(i int) (int, uint32, bool) { return clu.ShadowVersion(expTuple(i)) }

	for t := 0; t <= recLoadTicks+recLifeTicks; t++ {
		now := tickTime(t)
		inj.Advance(now)
		clu.Advance(now)

		// Spec churn: a new generation every recGenEvery ticks.
		if t > 0 && t%recGenEvery == 0 && gen < 1+recGens {
			gen++
			if err := rc.SetSpec(now, recSpecFor(gen)); err != nil {
				return nil, fmt.Errorf("reconcile: gen %d rejected: %w", gen, err)
			}
		}
		// The mid-rollout switch fault: writes against member 1 fail with
		// ErrSwitchDown until it reboots (empty) at recRestoreAt.
		if t == recFailAt {
			if err := clu.FailSwitch(1); err != nil {
				return nil, err
			}
		}
		if t == recRestoreAt {
			if err := clu.RestoreSwitch(1); err != nil {
				return nil, err
			}
		}
		// Out-of-band pool mutation on member 2 (an operator bypassing the
		// spec): PCC-preserving at the switch, caught and reverted by the
		// drift scan below.
		if t == recDriftAt {
			drifted := append(expPool(6), netip.AddrPortFrom(
				netip.AddrFrom4([4]byte{10, 9, 9, 9}), 20))
			if err := clu.Member(2).RequestUpdate(now, vip, drifted); err != nil {
				return nil, err
			}
		}

		rc.Step(now)
		if t%100 == 0 {
			rc.DetectDrift(now)
		}

		// Flows born recLifeTicks ago end; just before each one goes, its
		// shadow version is compared against the version pinned at
		// establishment. A flow whose tuple now sprays to a different
		// member was redirected by the switch failure — §7 accepts those
		// breaking, so they are counted, not asserted.
		if bt := t - recLifeTicks; bt >= 0 {
			for i := firstLive; i < len(flows); i++ {
				if born(i) >= bt {
					break
				}
				f := &flows[i]
				if f.vset {
					m, v, ok := shadow(i)
					switch {
					case f.redirected || (ok && m != f.member):
						rep.RedirectedFlows++
					case ok && v != f.version:
						rep.PCCViolations++
					}
				}
				clu.ConnEnd(now, expTuple(i))
				firstLive = i + 1
			}
		}

		// Established traffic: a rotating 1/recStride sample of live flows.
		for i := firstLive; i < len(flows); i++ {
			if i%recStride == t%recStride {
				pkt := &netproto.Packet{Tuple: expTuple(i), TCPFlags: netproto.FlagACK}
				_, m, fwd := clu.Packet(now, pkt)
				rep.Packets++
				if fwd {
					rep.Forwarded++
				}
				f := &flows[i]
				if !f.vset {
					if sm, v, ok := shadow(i); ok && sm == m {
						f.member, f.version, f.vset = sm, v, true
						rep.FlowsEstablished++
					}
				} else if m != f.member {
					f.redirected = true
				}
			}
		}
		// Arrivals, in bursts: recPerTick SYNs while the burst window is
		// open, then quiet until the next period.
		if t < recLoadTicks && t%recBurstGap < recBurstLen {
			for k := 0; k < recPerTick; k++ {
				i := len(flows)
				flows = append(flows, recFlow{})
				pkt := &netproto.Packet{Tuple: expTuple(i), TCPFlags: netproto.FlagSYN}
				_, _, fwd := clu.Packet(now, pkt)
				rep.Packets++
				if fwd {
					rep.Forwarded++
				}
			}
		}
	}
	rep.FlowsStarted = len(flows)

	// Convergence loop: the churn is over; the fleet must reach the final
	// generation — and a clean drift scan — within recConverge rounds.
	now := tickTime(recLoadTicks + recLifeTicks)
	converged := false
	rounds := 0
	for ; rounds < recConverge; rounds++ {
		clu.Advance(now)
		if rc.Step(now) && rc.DetectDrift(now) == 0 && rc.Converged() {
			converged = true
			break
		}
		if due, ok := rc.NextDue(); ok && due.After(now) {
			now = due
		} else {
			now = now.Add(recTick)
		}
	}
	rep.RoundsToConverge = rounds
	rep.ConvergedAtEnd = converged
	rep.FinalGeneration = rc.Generation()

	// Final pools: every member must serve exactly the last generation.
	want, err := recSpecFor(gen).Normalize(0)
	if err != nil {
		return nil, err
	}
	for i := 0; i < clu.Switches(); i++ {
		obs, ok := clu.Target(i).ObservedPool(vip)
		if !ok || !intent.SamePool(obs, want.VIPs[vip].Pool) {
			rep.PoolMismatches++
		}
	}

	// Idempotency golden: re-submitting the final generation with
	// identical content must issue zero writes.
	var writesBefore uint64
	for i := 0; i < recMembers; i++ {
		writesBefore += rc.Member(i).Writes()
	}
	reapply := recSpecFor(gen)
	reapply.Generation = rc.Generation()
	if err := rc.SetSpec(now, reapply); err != nil {
		return nil, fmt.Errorf("reconcile: idempotent re-apply rejected: %w", err)
	}
	rc.Step(now)
	for i := 0; i < recMembers; i++ {
		rep.IdempotentWrites += rc.Member(i).Writes()
	}
	rep.IdempotentWrites -= writesBefore
	rep.Writes = writesBefore + rep.IdempotentWrites

	count := func(name string) uint64 { return reg.Counter(name).Load() }
	rep.Rounds = count(telemetry.MetricReconcileRounds)
	rep.Applies = count(telemetry.MetricReconcileApplies)
	rep.Noops = count(telemetry.MetricReconcileNoops)
	rep.Retries = count(telemetry.MetricReconcileRetries)
	rep.Rollbacks = count(telemetry.MetricReconcileRollbacks)
	rep.Errors = count(telemetry.MetricReconcileErrors)
	rep.DriftDetected = count(telemetry.MetricReconcileDrift)
	im := inj.Metrics()
	rep.FaultsInjected = im.Injected
	rep.FaultsByKind = make(map[string]uint64, len(im.ByKind))
	for k, n := range im.ByKind {
		rep.FaultsByKind[k.String()] = n
	}
	rep.FaultsRemaining = inj.Remaining()
	rep.BucketsRedirected = clu.Redirected

	rep.setViolations(reconcileInvariants(rep))
	return rep, nil
}

// born returns the tick flow i was created on (inverse of the arrival
// schedule: recPerTick flows per burst tick).
func born(i int) int {
	burstTick := i / recPerTick // i-th burst tick overall
	return (burstTick/recBurstLen)*recBurstGap + burstTick%recBurstLen
}

// reconcileInvariants checks the controller contract against a finished
// run, in a fixed order for report determinism.
func reconcileInvariants(r *ReconcileReport) []string {
	var v []string
	fail := func(format string, args ...any) { v = append(v, fmt.Sprintf(format, args...)) }
	if r.PCCViolations != 0 {
		fail("PCC broken: %d established flows changed pool version", r.PCCViolations)
	}
	if !r.ConvergedAtEnd {
		fail("fleet never converged within %d rounds of the final generation", recConverge)
	}
	if r.FinalGeneration != 1+recGens {
		fail("final generation %d, want %d", r.FinalGeneration, 1+recGens)
	}
	if r.PoolMismatches != 0 {
		fail("%d members not serving the final pool", r.PoolMismatches)
	}
	if r.IdempotentWrites != 0 {
		fail("idempotent re-apply issued %d writes", r.IdempotentWrites)
	}
	if r.Rollbacks == 0 {
		fail("mid-rollout switch failure never triggered a rollback")
	}
	if r.Retries == 0 {
		fail("no apply was ever retried")
	}
	if r.DriftDetected == 0 {
		fail("out-of-band mutation never detected as drift")
	}
	if r.BucketsRedirected == 0 {
		fail("switch failure redirected no spray buckets")
	}
	if r.FaultsRemaining != 0 {
		fail("%d fault actions never fired", r.FaultsRemaining)
	}
	if r.FlowsEstablished == 0 {
		fail("no flow ever established")
	}
	if r.Forwarded == 0 {
		fail("nothing forwarded")
	}
	return v
}

// Reconcile is the registered experiment: the soak run twice through
// runSoak, emitted as RECONCILE_soak.json.
func Reconcile(scale float64, seed int64) (*Report, error) {
	return runSoak("reconcile", "Reconcile soak: declarative spec churn, rolling updates, rollback",
		"RECONCILE_soak.json", scale, seed, RunReconcileSoak, func(rep *Report, r *ReconcileReport) {
			rep.Printf("generations %d  reconcile rounds %d  writes %d (applies %d, noops %d)",
				r.FinalGeneration, r.Rounds, r.Writes, r.Applies, r.Noops)
			rep.Printf("faults: injected %d %v  retries %d  rollbacks %d  errors %d  drift %d",
				r.FaultsInjected, r.FaultsByKind, r.Retries, r.Rollbacks, r.Errors, r.DriftDetected)
			rep.Printf("flows %d (established %d)  packets %d (forwarded %d)  redirected flows %d",
				r.FlowsStarted, r.FlowsEstablished, r.Packets, r.Forwarded, r.RedirectedFlows)
			rep.Printf("PCC violations %d  converged in %d rounds  idempotent re-apply writes %d",
				r.PCCViolations, r.RoundsToConverge, r.IdempotentWrites)
		})
}
