package server

import (
	"adaptivefilters/internal/comm"
	"adaptivefilters/internal/sim"
)

// This file is the single home of the counter-charging rules every Host
// implementation applies. Cluster and Composite both route their message
// accounting through these helpers, so "what does a probe cost" is defined
// exactly once — a Host that re-implemented the rules could silently drift
// from the paper's accounting model (§2 of DESIGN.md).

// chargeProbes charges n completed probe round-trips: n Probe requests plus
// n ProbeReply messages. Batched fan-outs pass their full count so the
// counter is touched once per kind, not once per stream.
func chargeProbes(ctr *comm.Counter, n uint64) {
	if n == 0 {
		return
	}
	ctr.Add(comm.Probe, n)
	ctr.Add(comm.ProbeReply, n)
}

// chargeProbeRequest charges the request half of a conditional probe. The
// request is always paid — the server cannot know in advance whether the
// predicate holds at the stream.
func chargeProbeRequest(ctr *comm.Counter) { ctr.Add(comm.Probe, 1) }

// chargeProbeReply charges the reply half of a conditional probe, paid only
// when the stream's value satisfied the predicate.
func chargeProbeReply(ctr *comm.Counter) { ctr.Add(comm.ProbeReply, 1) }

// chargeInstalls charges n filter-installation messages.
func chargeInstalls(ctr *comm.Counter, n uint64) {
	if n == 0 {
		return
	}
	ctr.Add(comm.Install, n)
}

// lossSeedStream labels the uplink-loss stream derived from a host's loss
// seed (cf. the selection-stream labels in internal/core).
const lossSeedStream int64 = 0x1CEB

// uplink is the stream→server channel both hosts embed: it charges every
// update and decides whether the server hears it; the zero value is the
// paper's reliable channel. Whether update n (counting those charged before
// it) is lost is a pure function of (seed, n): the counter is the position.
type uplink struct {
	rate    float64
	seed    int64
	dropped uint64
}

// SetUplinkLoss loses each update with probability rate, reproducibly per
// seed; call it before the host runs or imports a snapshot. A lost update
// is still charged but never seen, so table and answers silently diverge.
// Probes and installs are never lost.
func (u *uplink) SetUplinkLoss(rate float64, seed int64) {
	u.rate, u.seed = rate, sim.DeriveSeed(seed, lossSeedStream)
}

// DroppedUpdates returns how many updates injected loss has dropped.
func (u *uplink) DroppedUpdates() uint64 { return u.dropped }

// chargeUpdate charges one update and says whether the server hears it.
func (u *uplink) chargeUpdate(ctr *comm.Counter) bool {
	ctr.Add(comm.Update, 1)
	return u.rate == 0 || u.heard(ctr)
}

// heard decides the fate of the update just charged to ctr.
func (u *uplink) heard(ctr *comm.Counter) bool {
	n := ctr.Get(comm.Init, comm.Update) + ctr.Get(comm.Maintenance, comm.Update) - 1
	lost := float64(uint64(sim.DeriveSeed(u.seed, int64(n)))>>11)/(1<<53) < u.rate
	if lost {
		u.dropped++
	}
	return !lost
}
