package core

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/query"
	"adaptivefilters/internal/server"
	"adaptivefilters/internal/sim"
	"adaptivefilters/internal/snapshot"
)

// stateRig hosts one protocol on its kind of cluster for the state tests:
// draw picks an initial value, move steps one.
type stateRig[V comparable, C filter.Of[V, C]] struct {
	draw  func(rng *sim.RNG) V
	move  func(rng *sim.RNG, v V) V
	build func(h server.HostOf[V, C], seed int64) server.ProtocolOf[V]
}

// stateTester is a stateRig with its value types erased, so 1-D and
// planar protocols share one table.
type stateTester interface {
	continuation(t *testing.T)
	truncation(t *testing.T)
}

func rig1D(build func(h server.Host, seed int64) server.Protocol) stateTester {
	return stateRig[float64, filter.Constraint]{
		draw:  func(rng *sim.RNG) float64 { return rng.Uniform(0, 1000) },
		move:  func(rng *sim.RNG, v float64) float64 { return v + rng.Normal(0, 40) },
		build: build,
	}
}

func rigPlanar(build func(h server.SpatialHost, seed int64) server.SpatialProtocol) stateTester {
	return stateRig[filter.Point, filter.Region]{
		draw: func(rng *sim.RNG) filter.Point {
			return filter.Point{X: rng.Uniform(0, 1000), Y: rng.Uniform(0, 1000)}
		},
		move: func(rng *sim.RNG, v filter.Point) filter.Point {
			return filter.Point{X: v.X + rng.Normal(0, 40), Y: v.Y + rng.Normal(0, 40)}
		},
		build: build,
	}
}

// stateProtocols enumerates every StatefulProtocol with a factory matching
// the runtime's TenantSpec shape, the planar rank protocols included.
func stateProtocols() map[string]stateTester {
	tol := FractionTolerance{EpsPlus: 0.3, EpsMinus: 0.3}
	randomFTRP := func(seed int64) FTRPConfig {
		fc := DefaultFTRPConfig(tol)
		fc.Selection = SelectRandom
		fc.Seed = seed
		return fc
	}
	at := query.Around(filter.Point{X: 500, Y: 500})
	return map[string]stateTester{
		"ft-nrp": rig1D(func(h server.Host, seed int64) server.Protocol {
			return NewFTNRP(h, query.NewRange(300, 700), FTNRPConfig{
				Tol: tol, Selection: SelectRandom, Seed: seed})
		}),
		"ft-rp": rig1D(func(h server.Host, seed int64) server.Protocol {
			return NewFTRP(h, query.At(500), 6, randomFTRP(seed))
		}),
		"rtp": rig1D(func(h server.Host, seed int64) server.Protocol {
			return NewRTP(h, query.At(500), RankTolerance{K: 5, R: 3})
		}),
		"zt-rp": rig1D(func(h server.Host, seed int64) server.Protocol {
			return NewZTRP(h, query.At(500), 4)
		}),
		"zt-nrp": rig1D(func(h server.Host, seed int64) server.Protocol {
			return NewZTNRP(h, query.NewRange(300, 700))
		}),
		"no-filter-range": rig1D(func(h server.Host, seed int64) server.Protocol {
			return NewNoFilterRange(h, query.NewRange(300, 700))
		}),
		"no-filter-knn": rig1D(func(h server.Host, seed int64) server.Protocol {
			return NewNoFilterKNN(h, query.KNN{Q: query.At(500), K: 4})
		}),
		"vb-knn": rig1D(func(h server.Host, seed int64) server.Protocol {
			return NewVBKNN(h, query.KNN{Q: query.At(500), K: 4}, 80)
		}),
		"rtp2d": rigPlanar(func(h server.SpatialHost, seed int64) server.SpatialProtocol {
			return NewRTP(h, at, RankTolerance{K: 4, R: 3})
		}),
		"ft-rp2d": rigPlanar(func(h server.SpatialHost, seed int64) server.SpatialProtocol {
			return NewFTRP(h, at, 6, randomFTRP(seed))
		}),
	}
}

// values draws n initial values from seed.
func (g stateRig[V, C]) values(n int, seed int64) []V {
	rng := sim.NewRNG(seed)
	vals := make([]V, n)
	for i := range vals {
		vals[i] = g.draw(rng)
	}
	return vals
}

// walk drives a deterministic random walk through a cluster.
func (g stateRig[V, C]) walk(c *server.ClusterOf[V, C], rng *sim.RNG, vals []V, events int) {
	for i := 0; i < events; i++ {
		s := rng.Intn(len(vals))
		vals[s] = g.move(rng, vals[s])
		c.Deliver(s, vals[s])
	}
}

// exportAll snapshots cluster and protocol state as one record, the way
// runtime.Node composes them.
func exportAll[V comparable, C filter.Of[V, C]](c *server.ClusterOf[V, C], p server.ProtocolOf[V]) []byte {
	w := snapshot.NewWriter()
	c.ExportState(w)
	p.(server.StatefulProtocolOf[V]).ExportState(w)
	return w.Bytes()
}

// continuation checks that a fresh instance restored from an exported
// state continues bit-identically to the original: same answers, same
// counters, same further exports.
func (g stateRig[V, C]) continuation(t *testing.T) {
	initial := g.values(30, 500)
	mk := func() (*server.ClusterOf[V, C], server.ProtocolOf[V], []V) {
		vals := append([]V(nil), initial...)
		cluster := server.NewClusterOf[V, C](vals)
		proto := g.build(cluster, 987)
		cluster.SetProtocol(proto)
		return cluster, proto, vals
	}
	origCluster, origProto, origVals := mk()
	origCluster.Initialize()
	g.walk(origCluster, sim.NewRNG(77), origVals, 400)
	data := exportAll(origCluster, origProto)

	restCluster, restProto, restVals := mk()
	r := snapshot.NewReader(data)
	if err := restCluster.ImportState(r); err != nil {
		t.Fatal(err)
	}
	if err := restProto.(server.StatefulProtocolOf[V]).ImportState(r); err != nil {
		t.Fatal(err)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	if again := exportAll(restCluster, restProto); !bytes.Equal(data, again) {
		t.Fatal("re-export after restore differs")
	}
	copy(restVals, origVals)
	if !reflect.DeepEqual(restProto.Answer(), origProto.Answer()) {
		t.Fatalf("restored answer %v, want %v", restProto.Answer(), origProto.Answer())
	}

	// Continue both with the same walk; they must stay identical.
	g.walk(origCluster, sim.NewRNG(88), origVals, 400)
	g.walk(restCluster, sim.NewRNG(88), restVals, 400)
	if !reflect.DeepEqual(restProto.Answer(), origProto.Answer()) {
		t.Fatalf("post-restore answers diverged: %v vs %v", restProto.Answer(), origProto.Answer())
	}
	if !reflect.DeepEqual(*restCluster.Counter(), *origCluster.Counter()) {
		t.Fatalf("post-restore counters diverged:\n%+v\n%+v",
			*restCluster.Counter(), *origCluster.Counter())
	}
	if !bytes.Equal(exportAll(origCluster, origProto), exportAll(restCluster, restProto)) {
		t.Fatal("post-restore state encodings diverged")
	}
}

// truncation checks that no protocol decode panics on, or accepts, a
// truncated record or one whose first set names a stream the host lacks.
func (g stateRig[V, C]) truncation(t *testing.T) {
	initial := g.values(20, 3)
	fresh := func() server.StatefulProtocolOf[V] {
		c := server.NewClusterOf[V, C](initial)
		p := g.build(c, 3)
		c.SetProtocol(p)
		return p.(server.StatefulProtocolOf[V])
	}
	cluster := server.NewClusterOf[V, C](initial)
	proto := g.build(cluster, 3)
	cluster.SetProtocol(proto)
	cluster.Initialize()
	w := snapshot.NewWriter()
	proto.(server.StatefulProtocolOf[V]).ExportState(w)
	data := w.Bytes()
	for cut := 0; cut < len(data); cut += 5 {
		// The encoding is self-delimiting, so any strict prefix must fail.
		if err := fresh().ImportState(snapshot.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	bad := snapshot.NewWriter()
	bad.Int(1)
	bad.Int(99)
	if err := fresh().ImportState(snapshot.NewReader(bad.Bytes())); err == nil {
		t.Fatal("out-of-range set member accepted")
	}
}

// TestProtocolStateContinuation runs stateRig.continuation for every
// protocol.
func TestProtocolStateContinuation(t *testing.T) {
	for name, g := range stateProtocols() {
		t.Run(name, g.continuation)
	}
}

// TestProtocolImportRejectsTruncation runs stateRig.truncation for every
// protocol.
func TestProtocolImportRejectsTruncation(t *testing.T) {
	for name, g := range stateProtocols() {
		t.Run(name, g.truncation)
	}
}

// TestExportRejectsOverlongRNGPosition checks the export side of the
// MaxSkip bound: a selection RNG that has consumed more steps than Skip
// can replay must fail the export with sim's error (an unrestorable
// snapshot is worse than no snapshot), and stay exportable right at the
// bound. Skip counts the steps it owes without taking them, so neither
// position costs a replay.
func TestExportRejectsOverlongRNGPosition(t *testing.T) {
	cluster := server.NewCluster(make([]float64, 10))
	p := NewFTNRP(cluster, query.NewRange(2, 8), FTNRPConfig{Selection: SelectRandom, Seed: 1})
	cluster.SetProtocol(p)
	if err := p.sel.Skip(sim.MaxSkip); err != nil {
		t.Fatal(err)
	}
	w := snapshot.NewWriter()
	p.ExportState(w)
	if err := w.Err(); err != nil {
		t.Fatalf("export at exactly the bound failed: %v", err)
	}
	if err := p.sel.Skip(1); err != nil { // one step past the bound
		t.Fatal(err)
	}
	w2 := snapshot.NewWriter()
	p.ExportState(w2)
	if err, want := w2.Err(), p.sel.Replayable(); err == nil || want == nil || !strings.Contains(err.Error(), want.Error()) {
		t.Fatalf("export past the replay bound failed with %v, want sim's %v", err, want)
	}
}

// TestRestoredRandomSelectionContinues checks that a selection stream
// restored from a snapshot — Skip only counts its position, so the
// restored stream is not even seeded until it draws — makes the same
// SelectRandom picks as the stream of a run that was never interrupted:
// after every deploy the pools and the stream's position agree.
func TestRestoredRandomSelectionContinues(t *testing.T) {
	tol := FractionTolerance{EpsPlus: 0.3, EpsMinus: 0.3}
	builds := map[string]func(h server.Host) (server.Protocol, *fraction){
		"ft-nrp": func(h server.Host) (server.Protocol, *fraction) {
			p := NewFTNRP(h, query.NewRange(300, 700), FTNRPConfig{Tol: tol, Selection: SelectRandom, Seed: 11})
			return p, &p.fraction
		},
		"ft-rp": func(h server.Host) (server.Protocol, *fraction) {
			cfg := DefaultFTRPConfig(tol)
			cfg.Selection, cfg.Seed = SelectRandom, 11
			p := NewFTRP(h, query.At(500), 12, cfg)
			return p, &p.fraction
		},
	}
	g := rig1D(nil).(stateRig[float64, filter.Constraint])
	initial := g.values(60, 21)
	for name, build := range builds {
		t.Run(name, func(t *testing.T) {
			mk := func() (*server.Cluster, server.Protocol, *fraction, []float64) {
				vals := append([]float64(nil), initial...)
				c := server.NewCluster(vals)
				p, f := build(c)
				c.SetProtocol(p)
				return c, p, f, vals
			}
			// picks walks the cluster and redeploys every 100 events,
			// recording the stream's position and the pools each time.
			picks := func(c *server.Cluster, f *fraction, vals []float64) (out []string) {
				rng := sim.NewRNG(88)
				for range 5 {
					g.walk(c, rng, vals, 100)
					c.Initialize()
					out = append(out, fmt.Sprint(f.sel.Pos(), f.fp.sorted(), f.fn.sorted()))
				}
				return out
			}
			origC, origP, origF, origVals := mk()
			origC.Initialize()
			g.walk(origC, sim.NewRNG(77), origVals, 300)
			data := exportAll(origC, origP)
			cut, pos := append([]float64(nil), origVals...), origF.sel.Pos()
			want := picks(origC, origF, origVals)
			if origF.sel.Pos() == pos || origF.fp.len()+origF.fn.len() == 0 {
				t.Fatalf("the deploys after the cut drew nothing (position %d) or placed no silent filter", pos)
			}

			restC, restP, restF, restVals := mk()
			r := snapshot.NewReader(data)
			if err := restC.ImportState(r); err != nil {
				t.Fatal(err)
			}
			if err := restP.(server.StatefulProtocol).ImportState(r); err != nil {
				t.Fatal(err)
			}
			copy(restVals, cut)
			if got := picks(restC, restF, restVals); !reflect.DeepEqual(got, want) {
				t.Fatalf("restored picks diverged:\n got %v\nwant %v", got, want)
			}
		})
	}
}
