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
	for id, v := range p.h.ProbeAll() {
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
		// re-runs Initialize — a ProbeAll and an install on every stream, the
		// delivered one included — from inside the dispatch loop.
		ftnrpWalk("ft-nrp-reinit", 0.1, false, core.ReinitAlways, true),
		ftnrpWalk("ft-nrp-faithful-reinit", 0.1, true, core.ReinitAlways, true),
	}
}

// play runs the walk on one composite — indexed (reports skip the
// CrossingDriven queries they do not concern, charging each one server op)
// or linear (every live query's HandleUpdate is called) — and returns the
// digest after every event.
func (w drivenWalk) play(t *testing.T, indexed bool) (lines []string, reinits, fixProbes uint64) {
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

// TestCrossingDrivenContract holds every protocol that declares
// server.CrossingDriven to the contract: on a composite, replacing the
// HandleUpdate of an update that did not cross the protocol's own entry by
// one server op must leave the answer, every phase×kind message counter,
// ServerOps and Reinits exactly as calling it does — after every event.
//
// (Fix_Error never probes the delivered stream itself: it consults streams
// holding a silent filter, and a stream whose entry just fired holds the
// query interval. What does land on the delivered stream mid-dispatch is a
// re-initialization, which the reinit walks drive.)
func TestCrossingDrivenContract(t *testing.T) {
	for _, w := range drivenWalks() {
		w := w
		t.Run(w.name, func(t *testing.T) {
			called, _, _ := w.play(t, false)
			skipped, reinits, fixProbes := w.play(t, true)
			for i := range called {
				if skipped[i] != called[i] {
					t.Fatalf("first differing event:\n skipping %s\n calling  %s", skipped[i], called[i])
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
// their tables), so declaring the marker would silently change answers.
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
