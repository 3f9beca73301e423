// The driver: every mode compiles the flags into one tenant description
// (buildTenants), plays it into a target through ingest lanes (play), and
// renders the target's runtime.Report (finish). What differs between a
// local node, -cluster and -connect is only which existing types stand in
// as lanes and target.
package main

import (
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"adaptivefilters/internal/filter"
	"adaptivefilters/internal/oracle"
	"adaptivefilters/internal/protospec"
	"adaptivefilters/internal/runtime"
	"adaptivefilters/internal/sim"
	"adaptivefilters/internal/wire"
	"adaptivefilters/internal/workload"
)

// tenantWorkloadStream labels per-tenant workload seed derivation, keeping
// workload randomness independent from the protocol seeds runtime.Node
// derives itself.
const tenantWorkloadStream int64 = 0x7EA1

// tenantSet is the flags' tenant description: declarative specs plus the
// workload trace that drives each tenant.
type tenantSet struct {
	specs []wire.TenantSpec
	// points holds a spatial tenant's initial positions, which the wire form
	// does not carry (validate keeps spatial tenants in-process); nil for
	// 1-D runs.
	points [][]filter.Point
	// traces[i] yields tenant i's trace, generated on the first call: play
	// calls it before its clock starts, and a -listen run, which never
	// plays, never generates one.
	traces []func() []workload.Event
	// audit is -check (nil without it): audit[i] holds one auditor per
	// standing query of tenant i, each over its own copy of the tenant's
	// ground truth.
	audit [][]*oracle.Auditor
}

// workload builds the configured 1-D workload from one seed.
func (p simParams) workload(seed int64) (workload.Workload, error) {
	switch p.Workload {
	case "synthetic":
		return workload.NewSynthetic(workload.SyntheticConfig{
			N: p.N, Lo: 0, Hi: 1000, MeanGap: 20, Sigma: p.Sigma,
			Horizon: float64(p.Events) * 20 / float64(p.N), Seed: seed,
		})
	case "tcp":
		cfg := workload.DefaultTCPLike(p.Events, seed)
		cfg.N = p.N
		return workload.NewTCPLike(cfg)
	case "replay":
		f, err := os.Open(p.Trace)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return workload.ParseCSV(p.Trace, f, 0)
	default:
		return nil, fmt.Errorf("unknown workload %q", p.Workload)
	}
}

// buildTenants derives every tenant from the flags: tenant i's workload is
// seeded from the base seed and i, and with -queries M > 1 it hosts M
// shifted copies of the configured query on one composite fabric. Spatial
// tenants walk the plane instead of the line.
func (p simParams) buildTenants() (tenantSet, error) {
	ts := tenantSet{
		specs:  make([]wire.TenantSpec, p.Tenants),
		traces: make([]func() []workload.Event, p.Tenants),
	}
	if p.spatialMode() {
		ts.points = make([][]filter.Point, p.Tenants)
	}
	for i := range ts.specs {
		seed := sim.DeriveSeed(p.Seed, tenantWorkloadStream, int64(i))
		spec := &ts.specs[i]
		var name string
		if ts.points != nil {
			w, err := workload.NewSpatial2D(workload.Spatial2DConfig{
				N: p.N, Lo: 0, Hi: 1000, MeanGap: 20, Sigma: p.Sigma,
				Horizon: float64(p.Events) * 20 / float64(p.N), Seed: seed,
			})
			if err != nil {
				return tenantSet{}, err
			}
			name, ts.points[i], ts.traces[i] = w.Name(), w.InitialPoints(), w.Events
		} else {
			w, err := p.workload(seed)
			if err != nil {
				return tenantSet{}, err
			}
			name, spec.Initial, ts.traces[i] = w.Name(), w.Initial(), w.Events
		}
		spec.Name = fmt.Sprintf("%s/%s-%d", p.Proto, name, i)
		if p.Queries == 1 {
			spec.Spec = p.spec(0)
			continue
		}
		spec.Queries = make([]wire.QuerySpec, p.Queries)
		for j := range spec.Queries {
			spec.Queries[j] = wire.QuerySpec{Name: fmt.Sprintf("q%d", j), Spec: p.spec(j)}
		}
	}
	if p.Check {
		ts.audit = make([][]*oracle.Auditor, p.Tenants)
		for i := range ts.audit {
			for j := 0; j < p.Queries; j++ {
				a, err := ts.auditor(i, p.spec(j), p.CheckEvery)
				if err != nil {
					return tenantSet{}, err
				}
				ts.audit[i] = append(ts.audit[i], a)
			}
		}
	}
	return ts, nil
}

// auditor holds one standing query of tenant i to the guarantee its spec
// sells, starting from the tenant's initial values and sampled every
// `every` events.
func (ts tenantSet) auditor(i int, spec protospec.Spec, every int) (*oracle.Auditor, error) {
	g, err := spec.Guarantee()
	if err != nil {
		return nil, err
	}
	if ts.points != nil {
		return oracle.NewPlanarAuditor(ts.points[i], g, every), nil
	}
	return oracle.NewAuditor(ts.specs[i].Initial, g, every), nil
}

// check shows every auditor the served answer of its query, as rep has it.
// rep must cover exactly the events the lanes have played so far.
func (ts tenantSet) check(pos uint64, rep *runtime.Report) {
	for i, qs := range ts.audit {
		switch t := &rep.Tenants[i]; {
		case !t.Alive:
		case !t.MultiQuery:
			qs[0].Audit(pos, t.Answer)
		default:
			for j, q := range t.Queries {
				if q.Alive {
					qs[j].Audit(pos, q.Answer)
				}
			}
		}
	}
}

// sampler is the mid-run audit as a per-flush hook: at each multiple of
// every events after first, where playLane ends a batch, it drains tgt and
// audits its report. Only a single lane's position is the target's, so play
// installs it on one-lane runs only.
func (ts tenantSet) sampler(tgt target, first, every uint64) func(pos uint64) error {
	return func(pos uint64) error {
		if (pos-first)%every != 0 {
			return nil
		}
		if err := tgt.Drain(); err != nil {
			return err
		}
		rep, err := tgt.Report()
		if err != nil {
			return err
		}
		ts.check(pos, rep)
		return nil
	}
}

// printOracle renders what -check found: how often the guarantee was
// checked and broken, the first breach, and how deep the worst answer went.
func printOracle(stdout io.Writer, tally oracle.Tally) {
	fmt.Fprintf(stdout, "oracle:     %d checks, %d violations", tally.Checks, tally.Violations)
	if tally.First != "" {
		fmt.Fprintf(stdout, " (first: %s)", tally.First)
	}
	fmt.Fprintln(stdout)
	if tally.MaxFPlus > 0 || tally.MaxFMinus > 0 {
		fmt.Fprintf(stdout, "worst observed F⁺=%.3f F⁻=%.3f\n", tally.MaxFPlus, tally.MaxFMinus)
	}
	if tally.WorstRank > 0 {
		fmt.Fprintf(stdout, "worst observed rank %d\n", tally.WorstRank)
	}
}

// runtimeSpecs validates the tenants against their real partition sizes and
// compiles them to the factory form runtime.Node hosts: 1-D tenants exactly
// as an admission off the network would, spatial ones through protospec
// directly.
func (ts tenantSet) runtimeSpecs() ([]runtime.TenantSpec, error) {
	out := make([]runtime.TenantSpec, len(ts.specs))
	for i, spec := range ts.specs {
		if ts.points == nil {
			rs, err := spec.Runtime()
			if err != nil {
				return nil, err
			}
			out[i] = rs
			continue
		}
		if err := spec.Spec.Validate(len(ts.points[i])); err != nil {
			return nil, err
		}
		build, err := spec.Spec.SpatialFactory()
		if err != nil {
			return nil, err
		}
		out[i] = runtime.TenantSpec{Name: spec.Name, SpatialInitial: ts.points[i], NewSpatial: build}
	}
	return out, nil
}

// lane is one ordered ingest path into the target: a *runtime.Ingester, a
// *cluster.Cluster, or one -connect connection.
type lane interface {
	Ingest([]runtime.Event) error
}

// target is what the lanes feed, seen from the control side.
type target interface {
	Drain() error
	Report() (*runtime.Report, error)
}

// nodeTarget is a runtime.Node seen as a target.
type nodeTarget struct{ *runtime.Node }

func (t nodeTarget) Report() (*runtime.Report, error) { return t.Node.Report(), nil }

// played is what one pass of the workload produced.
type played struct {
	events  uint64 // ingested by this run (a restored prefix excluded)
	elapsed time.Duration
	report  *runtime.Report
}

// play drives the tenants' workloads into tgt. Tenant i plays on lane
// i mod len(lanes): each lane merges its own tenants' traces on event time
// (ties by tenant index) and ingests them in batches, so every tenant's
// events reach the target in order through exactly one lane — the
// schedule under which answers are byte-identical at any lane count —
// while lanes run concurrently. The first skip merged events are dropped (a restored
// snapshot already holds them); afterFlush, if set, runs after every
// ingested batch with the lane's position in its merged stream. Both
// presume a single lane, whose order is the global one. The traces are
// generated and merged before the clock starts; it covers ingest and the
// final drain.
//
// Under -check each lane feeds its tenants' auditors the truth as it plays
// (the skipped prefix included); the final report is audited in every mode,
// and a single lane is also sampled every -check-every events.
func (p simParams) play(lanes []lane, tgt target, ts tenantSet, skip uint64,
	afterFlush func(pos uint64) error) (played, error) {

	n := len(lanes)
	ids := make([][]int, n)
	traces := make([][][]workload.Event, n)
	for i, trace := range ts.traces {
		ids[i%n] = append(ids[i%n], i)
		traces[i%n] = append(traces[i%n], trace())
	}
	orders := make([][]int, n)
	for g := range orders {
		orders[g] = workload.Merge(traces[g])
	}
	var cut uint64
	if ts.audit != nil && n == 1 {
		cut = uint64(ts.audit[0][0].Every)
		sample, then := ts.sampler(tgt, skip, cut), afterFlush
		afterFlush = func(pos uint64) error {
			if err := sample(pos); err != nil || then == nil {
				return err
			}
			return then(pos)
		}
	}
	start := time.Now()
	counts := make([]uint64, n) // counts[g], errs[g]: written by lane g only, read after Wait
	errs := make([]error, n)
	var wg sync.WaitGroup
	for g := range lanes {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			counts[g], errs[g] = playLane(lanes[g], ids[g], traces[g], orders[g], ts.audit, p.Batch, skip, cut, afterFlush)
		}(g)
	}
	wg.Wait()
	var res played
	for g := range lanes {
		if errs[g] != nil {
			return played{}, errs[g]
		}
		res.events += counts[g]
	}
	if err := tgt.Drain(); err != nil {
		return played{}, err
	}
	res.elapsed = time.Since(start)
	var err error
	if res.report, err = tgt.Report(); err == nil && ts.audit != nil {
		ts.check(skip+res.events, res.report)
	}
	return res, err
}

// playLane is the ingest loop: batch, flush. ids[j] is the global tenant
// id of traces[j], and order is the traces' workload.Merge; audit, when
// non-nil, learns every event's truth. A nonzero cut also ends a batch
// every cut events after skip, so no batch crosses a sampling point.
func playLane(l lane, ids []int, traces [][]workload.Event, order []int, audit [][]*oracle.Auditor,
	batch int, skip, cut uint64, afterFlush func(pos uint64) error) (uint64, error) {

	buf := make([]runtime.Event, 0, batch)
	var pos, ingested uint64
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		if err := l.Ingest(buf); err != nil {
			return err
		}
		ingested += uint64(len(buf))
		buf = buf[:0]
		if afterFlush != nil {
			return afterFlush(pos)
		}
		return nil
	}
	next := make([]int, len(traces))
	for _, src := range order {
		e := traces[src][next[src]]
		next[src]++
		ev := runtime.Event{Tenant: ids[src], Stream: e.Stream, Value: e.Value, Y: e.Y}
		if audit != nil {
			for _, a := range audit[ev.Tenant] {
				a.Apply(ev.Stream, ev.Value, ev.Y)
			}
		}
		if pos++; pos <= skip {
			continue
		}
		buf = append(buf, ev)
		if len(buf) == batch || cut > 0 && (pos-skip)%cut == 0 {
			if err := flush(); err != nil {
				return ingested, err
			}
		}
	}
	err := flush()
	return ingested, err
}

// periodically is the per-flush hook behind -snapshot-every and
// -migrate-every: fn runs once for each multiple of every (counted from
// first) that the stream position has passed, i.e. at the batch boundary
// following it — deterministic, so reruns cut at the same points.
func periodically(first uint64, every int, fn func() error) func(pos uint64) error {
	if every <= 0 {
		return nil
	}
	next := first + uint64(every)
	return func(pos uint64) error {
		for ; pos >= next; next += uint64(every) {
			if err := fn(); err != nil {
				return err
			}
		}
		return nil
	}
}

// finish renders a run's report — per-tenant lines (with -v, or for at most
// 8 tenants) and the totals — and writes the -answers dump. The dump is
// runtime.Report.Text whichever mode produced the report, with nothing
// time-, placement- or transport-dependent in it: that is what the
// determinism matrix byte-compares. Under -check the oracle line sums the
// run's auditors.
func (p simParams) finish(stdout io.Writer, rep *runtime.Report, ts tenantSet) error {
	var worst, total uint64
	live := 0
	for ti := range rep.Tenants {
		t := &rep.Tenants[ti]
		if !t.Alive {
			continue
		}
		maint := t.Counter.Maintenance()
		if p.Verbose || len(rep.Tenants) <= 8 {
			fmt.Fprintf(stdout, "  %-28s events=%-7d maint=%-7d answers=%s\n",
				t.Name, t.Events, maint, answerSizes(t))
		}
		if maint > worst {
			worst = maint
		}
		total += maint
		live++
	}
	fmt.Fprintf(stdout, "node totals: %v (worst tenant maint=%d, mean=%.1f)\n",
		&rep.Totals, worst, float64(total)/float64(live))
	if ts.audit != nil {
		var sum oracle.Tally
		for i, qs := range ts.audit {
			for j, a := range qs {
				if sum.First == "" && a.First != "" {
					sum.First = fmt.Sprintf("tenant %d query %d: %s", i, j, a.First)
				}
				sum.Add(a.Tally)
			}
		}
		printOracle(stdout, sum)
	}
	if p.Answers == "" {
		return nil
	}
	return os.WriteFile(p.Answers, []byte(rep.Text()), 0o644)
}

// answerSizes renders a tenant's answer-set size — per query slot for a
// multi-query tenant.
func answerSizes(t *runtime.TenantReport) string {
	if !t.MultiQuery {
		return fmt.Sprint(len(t.Answer))
	}
	sizes := make([]string, len(t.Queries))
	for qi, q := range t.Queries {
		sizes[qi] = "-"
		if q.Alive {
			sizes[qi] = fmt.Sprint(len(q.Answer))
		}
	}
	return strings.Join(sizes, "/")
}

// printIngested is the throughput line of the in-process modes.
func printIngested(stdout io.Writer, res played) {
	fmt.Fprintf(stdout, "ingested:   %d events in %v (%.0f events/sec)\n",
		res.events, res.elapsed.Round(time.Millisecond), float64(res.events)/res.elapsed.Seconds())
}
