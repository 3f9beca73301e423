package server_test

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"adaptivefilters/internal/comm"
	"adaptivefilters/internal/core"
	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/oracle"
	"adaptivefilters/internal/protospec"
	"adaptivefilters/internal/query"
	"adaptivefilters/internal/server"
	"adaptivefilters/internal/sim"
	"adaptivefilters/internal/snapshot"
)

// ftnrpFactory builds an FT-NRP query factory over [lo, hi] with symmetric
// tolerance eps and the given seed.
func ftnrpFactory(lo, hi, eps float64, seed int64) func(server.Host) server.Protocol {
	return func(h server.Host) server.Protocol {
		return core.NewFTNRP(h, query.NewRange(lo, hi), core.FTNRPConfig{
			Tol:       core.FractionTolerance{EpsPlus: eps, EpsMinus: eps},
			Selection: core.SelectBoundaryNearest,
			Seed:      seed,
		})
	}
}

// TestCompositeInitSharing pins the multi-query initialization economics:
// t0 costs exactly 2n probe messages plus n installs no matter how many
// queries share the fabric — the first query's fan-out pays, the siblings
// ride along.
func TestCompositeInitSharing(t *testing.T) {
	initial := make([]float64, 50)
	rng := sim.NewRNG(3)
	for i := range initial {
		initial[i] = rng.Uniform(0, 1000)
	}
	for _, m := range []int{1, 3, 8} {
		comp := server.NewComposite(initial)
		for qi := 0; qi < m; qi++ {
			comp.AddQuery(fmt.Sprintf("q%d", qi), int64(qi),
				ftnrpFactory(100+50*float64(qi), 600+30*float64(qi), 0.2, int64(qi)))
		}
		comp.Initialize()
		ctr := comp.Counter()
		if got, want := ctr.Get(comm.Init, comm.Probe), uint64(len(initial)); got != want {
			t.Errorf("M=%d: init probes = %d, want %d", m, got, want)
		}
		if got, want := ctr.Get(comm.Init, comm.ProbeReply), uint64(len(initial)); got != want {
			t.Errorf("M=%d: init probe replies = %d, want %d", m, got, want)
		}
		if got, want := ctr.Get(comm.Init, comm.Install), uint64(len(initial)); got != want {
			t.Errorf("M=%d: init installs = %d, want %d", m, got, want)
		}
		if got := ctr.Maintenance(); got != 0 {
			t.Errorf("M=%d: t0 charged %d maintenance messages", m, got)
		}
	}
}

// TestCompositeQueryAdmission checks live AddQuery/InitializeQuery: the new
// query pays its own t0 (2n + n, charged to Init), sibling answers and the
// maintenance bucket are untouched, and the counter returns to Maintenance.
func TestCompositeQueryAdmission(t *testing.T) {
	initial := []float64{150, 275, 450, 800, 50, 620}
	comp := server.NewComposite(initial)
	comp.AddQuery("q0", 0, ftnrpFactory(100, 300, 0, 1))
	comp.Initialize()
	a0 := comp.Answer(0)
	initTotal := comp.Counter().PhaseTotal(comm.Init)
	maint := comp.Counter().Maintenance()

	qi := comp.AddQuery("q1", 1, ftnrpFactory(400, 700, 0, 2))
	if qi != 1 {
		t.Fatalf("AddQuery slot = %d, want 1", qi)
	}
	comp.InitializeQuery(qi)
	n := uint64(len(initial))
	if got, want := comp.Counter().PhaseTotal(comm.Init)-initTotal, 2*n+n; got != want {
		t.Errorf("admission charged %d init messages, want %d", got, want)
	}
	if got := comp.Counter().Maintenance(); got != maint {
		t.Errorf("admission charged %d maintenance messages", got-maint)
	}
	if comp.Counter().Phase() != comm.Maintenance {
		t.Error("counter not returned to Maintenance after admission")
	}
	if got := comp.Answer(0); !reflect.DeepEqual(got, a0) {
		t.Errorf("sibling answer perturbed by admission: %v -> %v", a0, got)
	}
	if got := comp.Answer(1); !reflect.DeepEqual(got, []int{2, 5}) {
		t.Errorf("admitted query answer = %v, want [2 5]", got)
	}
}

// TestCompositeRemoveQuery checks eviction semantics: the removed query's
// entries become inert (no crossings, no silencing), accessors panic, slot
// ids are not reused, and double removal errors.
func TestCompositeRemoveQuery(t *testing.T) {
	initial := []float64{275, 500}
	comp := server.NewComposite(initial)
	comp.AddQuery("q0", 0, ftnrpFactory(100, 300, 0, 1))
	comp.AddQuery("q1", 1, ftnrpFactory(400, 600, 0, 2))
	comp.Initialize()
	if err := comp.RemoveQuery(0); err != nil {
		t.Fatal(err)
	}
	if err := comp.RemoveQuery(0); err == nil {
		t.Fatal("double remove succeeded")
	}
	if err := comp.RemoveQuery(9); err == nil {
		t.Fatal("removing unknown query succeeded")
	}
	if comp.QueryAlive(0) || !comp.QueryAlive(1) {
		t.Fatalf("liveness after removal: q0=%v q1=%v", comp.QueryAlive(0), comp.QueryAlive(1))
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Answer on removed query did not panic")
			}
		}()
		comp.Answer(0)
	}()
	// Stream 0 leaving the removed query's range must not report.
	before := comp.Counter().Maintenance()
	comp.Deliver(0, 350)
	if got := comp.Counter().Maintenance(); got != before {
		t.Errorf("crossing a removed query's boundary cost %d messages", got-before)
	}
	// Stream 1 leaving the live query's range must still report once.
	comp.Deliver(1, 650)
	if got := comp.Counter().Maintenance() - before; got == 0 {
		t.Error("live query crossing after sibling removal reported nothing")
	}
	if qi := comp.AddQuery("q2", 2, ftnrpFactory(0, 100, 0, 3)); qi != 2 {
		t.Fatalf("AddQuery reused slot: got %d, want 2", qi)
	}
}

// TestCompositeSnapshotRoundTrip exports a warmed fabric (including a
// removed slot), imports it into a fresh one, and requires bit-identical
// continuation: same answers, same counters, and byte-identical re-exports
// before and after further traffic.
func TestCompositeSnapshotRoundTrip(t *testing.T) {
	rng := sim.NewRNG(17)
	initial := make([]float64, 40)
	for i := range initial {
		initial[i] = rng.Uniform(0, 1000)
	}
	build := func() *server.Composite {
		comp := server.NewComposite(initial)
		comp.AddQuery("q0", 0, ftnrpFactory(100, 400, 0.3, 11))
		comp.AddQuery("q1", 1, ftnrpFactory(300, 700, 0.2, 12))
		comp.AddQuery("q2", 2, ftnrpFactory(600, 900, 0.25, 13))
		return comp
	}
	ref := build()
	ref.Initialize()
	if err := ref.RemoveQuery(1); err != nil {
		t.Fatal(err)
	}
	// Pre-generate the whole move sequence so the post-snapshot tail can be
	// replayed identically into the restored fabric.
	walk := append([]float64(nil), initial...)
	type move struct {
		s int
		v float64
	}
	moves := make([]move, 900)
	for i := range moves {
		s := rng.Intn(len(walk))
		walk[s] += rng.Normal(0, 60)
		moves[i] = move{s, walk[s]}
	}
	for _, mv := range moves[:500] {
		ref.Deliver(mv.s, mv.v)
	}

	w := snapshot.NewWriter()
	ref.ExportState(w)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	data := append([]byte(nil), w.Bytes()...)

	factories := map[int]func(server.Host) server.Protocol{
		0: ftnrpFactory(100, 400, 0.3, 11),
		2: ftnrpFactory(600, 900, 0.25, 13),
	}
	restored := server.NewComposite(initial)
	err := restored.ImportState(snapshot.NewReader(data),
		func(slot int, name string, seedID int64, h server.Host) (server.Protocol, error) {
			f, ok := factories[slot]
			if !ok {
				return nil, fmt.Errorf("unexpected slot %d", slot)
			}
			if seedID != int64(slot) {
				return nil, fmt.Errorf("slot %d seedID = %d", slot, seedID)
			}
			return f(h), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	w2 := snapshot.NewWriter()
	restored.ExportState(w2)
	if !bytes.Equal(data, w2.Bytes()) {
		t.Fatal("re-export after import differs from original snapshot")
	}

	// Continue both under identical traffic; they must stay bit-identical.
	for _, mv := range moves[500:] {
		ref.Deliver(mv.s, mv.v)
		restored.Deliver(mv.s, mv.v)
	}
	for _, qi := range []int{0, 2} {
		if got, want := restored.Answer(qi), ref.Answer(qi); !reflect.DeepEqual(got, want) {
			t.Errorf("query %d answer after restore = %v, want %v", qi, got, want)
		}
	}
	if got, want := *restored.Counter(), *ref.Counter(); !reflect.DeepEqual(got, want) {
		t.Errorf("counter after restore = %+v, want %+v", got, want)
	}

	// Decode robustness: truncations and header mutations error, never panic.
	for cut := 0; cut < len(data); cut += 97 {
		fresh := server.NewComposite(initial)
		_ = fresh.ImportState(snapshot.NewReader(data[:cut]),
			func(slot int, name string, seedID int64, h server.Host) (server.Protocol, error) {
				if f, ok := factories[slot]; ok {
					return f(h), nil
				}
				return nil, fmt.Errorf("unexpected slot %d", slot)
			})
	}
}

// hostProbe is a minimal protocol that drives every Host primitive once per
// HandleUpdate, so the per-query view's full surface — and its epoch
// charging rules — are pinned directly rather than through whichever
// primitives a core protocol happens to use.
type hostProbe struct {
	h server.Host
}

func (p *hostProbe) Name() string { return "host-probe" }
func (p *hostProbe) Initialize() {
	p.h.ProbeAllInto(nil)
	p.h.ProbeBatch([]int{0, 1})
	p.h.Probe(0)
	p.h.ProbeIf(1, filter.WideOpen())
	p.h.InstallBatch([]int{0, 1, 0}, filter.NewInterval(100, 500))
	p.h.InstallAllExcept(nil, filter.NewInterval(100, 500))
	p.h.Install(0, filter.NewInterval(100, 500), true)
	p.h.AddServerOps(1)
}
func (p *hostProbe) HandleUpdate(id int, v float64) {}
func (p *hostProbe) Answer() []int                  { return nil }

// TestCompositeViewHostSurface exercises every Host primitive through a
// composite view, checking the epoch sharing rules hold method by method:
// inside the init epoch the whole Initialize fan-out above costs exactly
// 2n probes + n installs, and outside an epoch each primitive pays the
// same price a Cluster charges.
func TestCompositeViewHostSurface(t *testing.T) {
	initial := []float64{200, 400, 800}
	n := uint64(len(initial))
	comp := server.NewComposite(initial)
	var views []server.Host
	for qi := 0; qi < 2; qi++ {
		qi := qi
		comp.AddQuery(fmt.Sprintf("hp%d", qi), int64(qi), func(h server.Host) server.Protocol {
			views = append(views, h)
			return &hostProbe{h: h}
		})
	}
	comp.Initialize()
	ctr := comp.Counter()
	if got, want := ctr.Get(comm.Init, comm.Probe), n; got != want {
		t.Errorf("init probes = %d, want %d (epoch must dedupe every probe variant)", got, want)
	}
	if got, want := ctr.Get(comm.Init, comm.Install), n; got != want {
		t.Errorf("init installs = %d, want %d (epoch must dedupe InstallBatch, InstallAllExcept and Install)", got, want)
	}
	if ctr.ServerOps != 2 {
		t.Errorf("server ops = %d, want 2", ctr.ServerOps)
	}

	// Accessors over the live fabric.
	if comp.QuerySlots() != 2 || comp.LiveQueries() != 2 {
		t.Fatalf("slots/live = %d/%d", comp.QuerySlots(), comp.LiveQueries())
	}
	if comp.QueryName(1) != "hp1" || comp.QuerySeedID(1) != 1 {
		t.Fatalf("slot 1 = %q/%d", comp.QueryName(1), comp.QuerySeedID(1))
	}
	if comp.Protocol(0).Name() != "host-probe" {
		t.Fatalf("Protocol(0) = %q", comp.Protocol(0).Name())
	}
	if comp.SilentStreams() != 0 {
		t.Fatalf("SilentStreams = %d, want 0", comp.SilentStreams())
	}
	if got := comp.Constraint(0, 0); got != filter.NewInterval(100, 500) {
		t.Fatalf("Constraint(0,0) = %v", got)
	}
	if comp.TrueValue(2) != 800 {
		t.Fatalf("TrueValue(2) = %g", comp.TrueValue(2))
	}

	// Outside an epoch, every primitive pays the Cluster price.
	v := views[0]
	before := *ctr
	if got := v.Probe(0); got != 200 {
		t.Fatalf("Probe = %g", got)
	}
	if _, hit := v.ProbeIf(0, filter.Shut()); hit {
		t.Fatal("ProbeIf hit through a shut filter")
	}
	if _, hit := v.ProbeIf(0, filter.WideOpen()); !hit {
		t.Fatal("ProbeIf missed through a wide-open filter")
	}
	v.ProbeBatch([]int{1, 2})
	v.ProbeAllInto(nil)
	v.InstallAllExcept(nil, filter.NewInterval(0, 1000))
	v.Install(2, filter.NewInterval(0, 1000), true)
	v.InstallBatch([]int{0, 2}, filter.NewInterval(0, 1000))
	v.InstallBatch(nil, filter.NewInterval(0, 1000))
	wantProbe := before.Get(comm.Maintenance, comm.Probe) + 1 + 2 + 2 + n
	wantReply := before.Get(comm.Maintenance, comm.ProbeReply) + 1 + 1 + 2 + n
	wantInstall := before.Get(comm.Maintenance, comm.Install) + n + 1 + 2
	if got := ctr.Get(comm.Maintenance, comm.Probe); got != wantProbe {
		t.Errorf("maintenance probes = %d, want %d", got, wantProbe)
	}
	if got := ctr.Get(comm.Maintenance, comm.ProbeReply); got != wantReply {
		t.Errorf("maintenance probe replies = %d, want %d", got, wantReply)
	}
	if got := ctr.Get(comm.Maintenance, comm.Install); got != wantInstall {
		t.Errorf("maintenance installs = %d, want %d", got, wantInstall)
	}
	if val := v.Table(0); val != 200 {
		t.Errorf("Table(0) = %g, want 200", val)
	}
	if got := v.TableValues(nil); len(got) != len(initial) || got[2] != 800 {
		t.Errorf("TableValues = %v", got)
	}
	if v.N() != len(initial) {
		t.Errorf("N = %d", v.N())
	}
}

// TestCompositeKindSemanticsMatchCluster pins that a single-query composite
// applies the same per-kind source semantics as a Cluster's stream.Sources:
// an unfiltered (None) query sees every update, a band query reports on
// deviation and re-centers locally, and answers and full counters match the
// Cluster deployment of the same protocol bit-exactly.
func TestCompositeKindSemanticsMatchCluster(t *testing.T) {
	rng := sim.NewRNG(83)
	initial := make([]float64, 45)
	for i := range initial {
		initial[i] = rng.Uniform(0, 1000)
	}
	type move struct {
		s int
		v float64
	}
	walkVals := append([]float64(nil), initial...)
	moves := make([]move, 2500)
	for i := range moves {
		s := rng.Intn(len(walkVals))
		walkVals[s] += rng.Normal(0, 30)
		moves[i] = move{s, walkVals[s]}
	}
	cases := []struct {
		name  string
		build func(h server.Host) server.Protocol
	}{
		{"no-filter", func(h server.Host) server.Protocol {
			return core.NewNoFilterRange(h, query.NewRange(300, 700))
		}},
		{"vb-knn", func(h server.Host) server.Protocol {
			return core.NewVBKNN(h, query.KNN{Q: query.At(500), K: 6}, 40)
		}},
		{"zt-nrp", func(h server.Host) server.Protocol {
			return core.NewZTNRP(h, query.NewRange(300, 700))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cl := server.NewCluster(initial)
			cl.SetProtocol(tc.build(cl))
			cl.Initialize()
			comp := server.NewComposite(initial)
			comp.AddQuery("q0", 0, tc.build)
			comp.Initialize()
			for _, mv := range moves {
				cl.Deliver(mv.s, mv.v)
				comp.Deliver(mv.s, mv.v)
			}
			if got, want := comp.Answer(0), cl.Protocol().Answer(); !reflect.DeepEqual(got, want) {
				t.Errorf("answer = %v, cluster says %v", got, want)
			}
			if got, want := *comp.Counter(), *cl.Counter(); !reflect.DeepEqual(got, want) {
				t.Errorf("counter = %+v, cluster says %+v", got, want)
			}
		})
	}
}

// sortedInto copies ids into buf's storage and sorts them there.
func sortedInto(buf, ids []int) []int {
	buf = append(buf[:0], ids...)
	slices.Sort(buf)
	return buf
}

// TestCompositeOfOneIsCluster pins that the composite and the cluster run
// one stream rule over one uplink: a composite hosting one query is the
// cluster hosting it, for every 1-D protocol, reliable or lossy. Each run
// is a seeded walk with a ±Inf move every 97 events (a shut filter
// contains +Inf, and a silent filter must still never report), once at
// each loss rate with the same (rate, seed) on both hosts. After every
// event the two hosts must agree on the whole counter, on the answer and
// on DroppedUpdates; at rate 0 an oracle audits the answer. The protocols
// run in parallel, and the per-event answer compare sorts into reused
// buffers, which keeps the test's race-detector run short.
func TestCompositeOfOneIsCluster(t *testing.T) {
	const n, events, infEvery = 150, 6000, 97
	eps := func(s protospec.Spec) protospec.Spec { s.EpsPlus, s.EpsMinus = 0.2, 0.2; return s }
	specs := []protospec.Spec{
		{Protocol: "zt-nrp", Lo: 300, Hi: 700},
		eps(protospec.Spec{Protocol: "ft-nrp", Lo: 300, Hi: 700}),
		eps(protospec.Spec{Protocol: "ft-nrp", Lo: 300, Hi: 700, Selection: protospec.SelectRandom}),
		{Protocol: "rtp", Q: 500, K: 10, R: 5},
		{Protocol: "rtp", Top: true, K: 10, R: 5},
		eps(protospec.Spec{Protocol: "ft-rp", Q: 500, K: 10}),
		{Protocol: "zt-rp", Q: 500, K: 10},
		{Protocol: "vb-knn", Q: 500, K: 10, Width: 40},
		{Protocol: "no-filter", Lo: 300, Hi: 700},
	}
	for _, spec := range specs {
		name := spec.Protocol
		if spec.Top {
			name += "-top"
		}
		if spec.Selection != "" {
			name += "-" + spec.Selection
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if err := spec.Validate(n); err != nil {
				t.Fatal(err)
			}
			factory, err := spec.Factory()
			if err != nil {
				t.Fatal(err)
			}
			g, err := spec.Guarantee()
			if err != nil {
				t.Fatal(err)
			}
			var want, got []int // sorted answers, reused event to event
			for _, rate := range []float64{0, 0.2} {
				for seed := int64(1); seed <= 8; seed++ {
					rng := sim.NewRNG(seed)
					initial := make([]float64, n)
					for i := range initial {
						initial[i] = rng.Uniform(0, 1000)
					}
					cl := server.NewCluster(initial)
					cl.SetUplinkLoss(rate, seed)
					cl.SetProtocol(factory(cl, seed))
					cl.Initialize()
					comp := server.NewComposite(initial)
					comp.SetUplinkLoss(rate, seed)
					comp.AddQuery("q", seed, func(h server.Host) server.Protocol { return factory(h, seed) })
					comp.Initialize()
					audit := oracle.NewAuditor(initial, g, 1)
					walk := append([]float64(nil), initial...)
					for e := 0; e < events; e++ {
						s := rng.Intn(n)
						walk[s] += rng.Normal(0, 20)
						v := walk[s]
						if e%infEvery == infEvery-1 {
							v = math.Inf(1 - 2*(e/infEvery%2))
						}
						cl.Deliver(s, v)
						comp.Deliver(s, v)
						audit.Apply(s, v, 0)
						want = sortedInto(want, cl.Protocol().Answer())
						if got = sortedInto(got, comp.Answer(0)); !slices.Equal(got, want) {
							t.Fatalf("rate %v seed %d event %d: composite answers %v, cluster %v", rate, seed, e, got, want)
						}
						if *comp.Counter() != *cl.Counter() {
							t.Fatalf("rate %v seed %d event %d: composite counter %v, cluster %v", rate, seed, e, comp.Counter(), cl.Counter())
						}
						if comp.DroppedUpdates() != cl.DroppedUpdates() {
							t.Fatalf("rate %v seed %d event %d: composite dropped %d updates, cluster %d",
								rate, seed, e, comp.DroppedUpdates(), cl.DroppedUpdates())
						}
						if rate == 0 {
							audit.Audit(uint64(e), want)
						}
					}
					if rate > 0 && cl.DroppedUpdates() == 0 {
						t.Fatalf("rate %v seed %d: no update was lost", rate, seed)
					}
					if audit.Violations != 0 {
						t.Fatalf("seed %d: %d of %d audits violated; first: %s", seed, audit.Violations, audit.Checks, audit.First)
					}
				}
			}
		})
	}
}

// TestCompositeHeapFlatInQueries pins what a composite's filter entries
// cost: one bit per (stream, slot), the override bitmap. It hosts n = 1,000
// streams under M = 1, 64, 256 and 1,024 ZT-NRP queries, each broadcasting
// its interval as its column default, and measures the heap each composite
// retains beyond one over a single stream with the same queries, per extra
// stream (so per-query state cancels). From M = 1 to M that may grow by at
// most ⌈M/64⌉·8 bytes plus a small constant: a dense matrix of entries
// would add 24 bytes per slot, 24 KiB per stream at M = 1,024. The
// interval lies above every value, so no protocol holds an answer bitmap.
func TestCompositeHeapFlatInQueries(t *testing.T) {
	const n, slack = 1000, 32
	rg := query.NewRange(1e6, 2e6)
	retained := func(streams, m int) int64 {
		initial := make([]float64, streams)
		for s := range initial {
			initial[s] = float64(s % 100)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		c := server.NewComposite(initial)
		for qi := 0; qi < m; qi++ {
			c.AddQuery(fmt.Sprintf("q%d", qi), int64(qi), func(h server.Host) server.Protocol {
				return core.NewZTNRP(h, rg)
			})
		}
		c.Initialize()
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(c)
		return int64(after.HeapAlloc) - int64(before.HeapAlloc)
	}
	perStream := func(m int) int64 { return (retained(n, m) - retained(1, m)) / (n - 1) }
	retained(1, 1) // the first measurement also sees the test binary's warm-up freed
	base := perStream(1)
	for _, m := range []int{64, 256, 1024} {
		got, bound := perStream(m)-base, int64((m+63)/64*8+slack)
		t.Logf("M = %d: %d bytes per stream more than at M = 1 (bound %d)", m, got, bound)
		if got > bound {
			t.Errorf("M = %d: each stream retains %d bytes more than at M = 1, want at most %d", m, got, bound)
		}
	}
}
