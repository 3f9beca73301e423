package core_test

import (
	"math/rand"
	"testing"

	"adaptivefilters/internal/comm"
	"adaptivefilters/internal/core"
	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/pintest"
	"adaptivefilters/internal/query"
	"adaptivefilters/internal/server"
	"adaptivefilters/internal/stream"
)

// pinger is the sibling query of the contract walks: it keeps a tight band
// on every stream, so most events make the stream report for a reason that
// is not the protocol under test's. It does not declare CrossingDriven, so
// both composites dispatch to it alike.
type pinger struct{ h server.Host }

func (p *pinger) Name() string { return "pinger" }
func (p *pinger) Initialize() {
	for id, v := range p.h.ProbeAllInto(nil) {
		p.h.Install(id, filter.NewBand(v, 4), true)
	}
}
func (p *pinger) HandleUpdate(stream.ID, float64) {}
func (p *pinger) Answer() []stream.ID             { return nil }

// drivenWalk is one seeded walk of the CrossingDriven contract test: two
// instances of the protocol under test (different ranges and seeds, so one
// instance's Fix_Error or re-initialization runs in the middle of a
// dispatch that skips or follows the other) beside a pinger.
type drivenWalk struct {
	name  string
	build func(h server.Host, j int) server.CrossingDriven
	// reinits reads an instance's re-initialization count (nil: none).
	reinits func(p server.CrossingDriven) uint64
	// wantReinit and wantFixError assert the walk really drove the protocol
	// through the paths the contract is about.
	wantReinit, wantFixError bool
}

func ftnrpWalk(name string, eps float64, faithful bool, reinit core.ReinitPolicy, wantReinit bool) drivenWalk {
	return drivenWalk{
		name: name,
		build: func(h server.Host, j int) server.CrossingDriven {
			lo := 300 + 150*float64(j)
			return core.NewFTNRP(h, query.NewRange(lo, lo+250), core.FTNRPConfig{
				Tol:       core.FractionTolerance{EpsPlus: eps, EpsMinus: eps},
				Selection: core.SelectBoundaryNearest,
				Seed:      int64(7 + j),
				Faithful:  faithful,
				Reinit:    reinit,
			})
		},
		reinits:      func(p server.CrossingDriven) uint64 { return p.(*core.FTNRP).Reinits },
		wantReinit:   wantReinit,
		wantFixError: true,
	}
}

func drivenWalks() []drivenWalk {
	return []drivenWalk{
		{name: "zt-nrp", build: func(h server.Host, j int) server.CrossingDriven {
			lo := 300 + 150*float64(j)
			return core.NewZTNRP(h, query.NewRange(lo, lo+250))
		}},
		ftnrpWalk("ft-nrp-strict", 0.2, false, core.ReinitNever, false),
		ftnrpWalk("ft-nrp-faithful", 0.2, true, core.ReinitNever, false),
		// A small tolerance drains both silent pools quickly, so ReinitAlways
		// re-runs Initialize — a ProbeAllInto and an install on every stream, the
		// delivered one included — from inside the dispatch loop.
		ftnrpWalk("ft-nrp-reinit", 0.1, false, core.ReinitAlways, true),
		ftnrpWalk("ft-nrp-faithful-reinit", 0.1, true, core.ReinitAlways, true),
	}
}

// handling hosts a CrossingDriven protocol as one that is not, so the
// composite calls its HandleUpdate on every report.
type handling struct{ server.Protocol }

// splitting is handling with HandleUpdate played as its contract's split:
// one server op, then Crossed.
type splitting struct {
	server.Protocol
	h server.Host
}

func (p splitting) HandleUpdate(id stream.ID, v float64) {
	p.h.AddServerOps(1)
	p.Protocol.(server.CrossingDriven).Crossed(id, v)
}

// play runs the walk on one composite — indexed (reports skip the
// CrossingDriven queries they do not concern, and hand the others the
// crossing through Crossed) or linear (every live query's maintenance runs)
// — and returns the digest after every event. A non-nil host wraps each
// instance in the protocol the composite sees.
func (w drivenWalk) play(t *testing.T, indexed bool, host func(server.Host, server.CrossingDriven) server.Protocol) (lines []string, reinits, fixProbes uint64) {
	t.Helper()
	prev := server.SetQueryIndexEnabled(indexed)
	defer server.SetQueryIndexEnabled(prev)

	const n, events = 80, 6000
	rng := rand.New(rand.NewSource(41))
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(rng.Intn(2000)) / 2
	}
	c := server.NewComposite(vals)
	var subjects []server.CrossingDriven
	for j := 0; j < 2; j++ {
		j := j
		c.AddQuery(w.name, int64(j), func(h server.Host) server.Protocol {
			p := w.build(h, j)
			subjects = append(subjects, p)
			if host != nil {
				return host(h, p)
			}
			return p
		})
	}
	c.AddQuery("pinger", 2, func(h server.Host) server.Protocol { return &pinger{h: h} })
	c.Initialize()

	d := pintest.NewDigest()
	for ev := 1; ev <= events; ev++ {
		id := rng.Intn(n)
		vals[id] += float64(rng.Intn(121)-60) / 2
		c.Deliver(id, vals[id])
		reinits = 0
		for _, p := range subjects {
			var r uint64
			if w.reinits != nil {
				r = w.reinits(p)
			}
			reinits += r
			d.Event(p.Answer(), c.Counter(), 0, r)
		}
		lines = append(lines, d.Checkpoint(w.name, ev, c.Counter(), 0, reinits))
	}
	// Only Fix_Error and re-initialization probe during maintenance.
	return lines, reinits, c.Counter().Get(comm.Maintenance, comm.Probe)
}

// TestCrossingDrivenContract holds every protocol that implements
// server.CrossingDriven to the contract, after every event of each walk:
// the answers, every phase×kind message counter, ServerOps and Reinits are
// the same on four composites. The linear one runs every live query's
// maintenance on each report; the indexed one replaces the Crossed of an
// update that did not cross the protocol's own entry by nothing; the
// twins host each instance as a protocol that is not CrossingDriven, so
// every report goes through HandleUpdate, which one twin calls and the
// other plays as one server op followed by Crossed.
//
// (Fix_Error never probes the delivered stream itself: it consults streams
// holding a silent filter, and a stream whose entry just fired holds the
// query interval. What does land on the delivered stream mid-dispatch is a
// re-initialization, which the reinit walks drive.)
func TestCrossingDrivenContract(t *testing.T) {
	for _, w := range drivenWalks() {
		w := w
		t.Run(w.name, func(t *testing.T) {
			called, _, _ := w.play(t, false, nil)
			skipped, reinits, fixProbes := w.play(t, true, nil)
			handled, _, _ := w.play(t, true, func(_ server.Host, p server.CrossingDriven) server.Protocol {
				return handling{p}
			})
			split, _, _ := w.play(t, true, func(h server.Host, p server.CrossingDriven) server.Protocol {
				return splitting{p, h}
			})
			for i := range called {
				if skipped[i] != called[i] {
					t.Fatalf("first differing event:\n skipping %s\n calling  %s", skipped[i], called[i])
				}
				if split[i] != handled[i] {
					t.Fatalf("first differing event:\n split    %s\n handled  %s", split[i], handled[i])
				}
				if handled[i] != called[i] {
					t.Fatalf("first differing event:\n handled  %s\n calling  %s", handled[i], called[i])
				}
			}
			if w.wantReinit && reinits == 0 {
				t.Error("walk never re-initialized; adjust the tolerance")
			}
			if w.wantFixError && fixProbes == 0 {
				t.Error("walk never ran Fix_Error; adjust the tolerance")
			}
		})
	}
}

// TestCrossingDrivenNotDeclared pins the protocols that must keep seeing
// every report: each of them reads reported values its own filter did not
// cause (RTP tracks positions inside its bound, FT-RP runs checkWindow on
// every update, ZT-RP re-ranks, VB-kNN and the no-filter baselines refresh
// their tables), so implementing Crossed would silently change answers.
func TestCrossingDrivenNotDeclared(t *testing.T) {
	c := server.NewCluster([]float64{100, 200, 300, 400, 500, 600})
	ftrp := core.DefaultFTRPConfig(core.FractionTolerance{EpsPlus: 0.2, EpsMinus: 0.2})
	for _, p := range []server.Protocol{
		core.NewRTP(c, query.At(300), core.RankTolerance{K: 2, R: 1}),
		core.NewFTRP(c, query.At(300), 2, ftrp),
		core.NewZTRP(c, query.At(300), 2),
		core.NewVBKNN(c, query.NewKNN(query.At(300), 2), 20),
		core.NewNoFilterRange(c, query.NewRange(100, 300)),
		core.NewNoFilterKNN(c, query.NewKNN(query.At(300), 2)),
	} {
		if _, ok := p.(server.CrossingDriven); ok {
			t.Errorf("%s declares server.CrossingDriven", p.Name())
		}
	}
	for _, p := range []server.Protocol{
		core.NewZTNRP(c, query.NewRange(100, 300)),
		core.NewFTNRP(c, query.NewRange(100, 300), core.FTNRPConfig{}),
	} {
		if _, ok := p.(server.CrossingDriven); !ok {
			t.Errorf("%s does not declare server.CrossingDriven", p.Name())
		}
	}
}
