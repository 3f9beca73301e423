package main

import (
	"io"
	"math"
	"strings"
	"testing"
)

// okParams is a valid baseline every table case mutates.
func okParams() simParams {
	return simParams{
		Tenants: 1, Queries: 1, Shards: 1,
		N: 1000, Events: 50000, Batch: 512, CheckEvery: 10,
		Ingesters: 1, Conns: 1,
		Proto: "ft-nrp", Lo: 400, Hi: 600, K: 20, R: 5, Q: 500, Width: 100,
		EpsPlus: 0.2, EpsMinus: 0.2, Selection: "boundary",
	}
}

func TestValidateAcceptsDefaults(t *testing.T) {
	if err := okParams().validate(); err != nil {
		t.Fatal(err)
	}
	// Wire endpoints with sane flags pass too.
	p := okParams()
	p.Tenants, p.Listen = 4, ":0"
	if err := p.validate(); err != nil {
		t.Fatal(err)
	}
	p = okParams()
	p.Tenants, p.Connect, p.Rate, p.Shutdown = 4, "localhost:7070", 1e5, true
	if err := p.validate(); err != nil {
		t.Fatal(err)
	}
	// Cluster mode with forced migrations, and a listener with a ready file.
	p = okParams()
	p.Tenants, p.Cluster, p.MigrateEvery = 4, 3, 1000
	if err := p.validate(); err != nil {
		t.Fatal(err)
	}
	p = okParams()
	p.Tenants, p.Listen, p.ReadyFile = 4, ":0", "addr.txt"
	if err := p.validate(); err != nil {
		t.Fatal(err)
	}
	// Spatial protocols: single tenant, many tenants, and snapshot/restore
	// all pass without -queries (spatial runs always host a node).
	p = okParams()
	p.Proto, p.QX, p.QY = "rtp2d", 500, 500
	if err := p.validate(); err != nil {
		t.Fatal(err)
	}
	p.Tenants, p.SnapEvery = 4, 1000
	if err := p.validate(); err != nil {
		t.Fatal(err)
	}
	p = okParams()
	p.Proto, p.Restore = "ft-rp2d", "x.snap"
	if err := p.validate(); err != nil {
		t.Fatal(err)
	}
	// Concurrent ingesters on a local multi-tenant run, and a multi-connection
	// wire driver.
	p = okParams()
	p.Tenants, p.Shards, p.Ingesters = 8, 4, 4
	if err := p.validate(); err != nil {
		t.Fatal(err)
	}
	// A lone 1-D tenant is hosted on a node like any other run, so it takes
	// snapshots, restores and concurrent ingesters.
	for _, mut := range []func(*simParams){
		func(p *simParams) { p.SnapEvery = 100 },
		func(p *simParams) { p.Restore = "x.snap" },
		func(p *simParams) { p.Ingesters = 2 },
	} {
		p = okParams()
		mut(&p)
		if err := p.validate(); err != nil {
			t.Fatal(err)
		}
	}
	p = okParams()
	p.Tenants, p.Connect, p.Conns = 4, "localhost:7070", 4
	if err := p.validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*simParams)
		want string // substring of the error
	}{
		{"zero-tenants", func(p *simParams) { p.Tenants = 0 }, "-tenants"},
		{"zero-queries", func(p *simParams) { p.Queries = 0 }, "-queries"},
		{"zero-shards", func(p *simParams) { p.Shards = 0 }, "-shards"},
		{"negative-shards", func(p *simParams) { p.Shards = -2 }, "-shards"},
		{"zero-n", func(p *simParams) { p.N = 0 }, "-n must"},
		{"negative-events", func(p *simParams) { p.Events = -1 }, "-events"},
		{"zero-batch", func(p *simParams) { p.Batch = 0 }, "-batch"},
		{"zero-check-every", func(p *simParams) { p.CheckEvery = 0 }, "-check-every"},
		{"negative-snap-every", func(p *simParams) { p.SnapEvery = -1 }, "-snapshot-every"},
		{"listen-and-connect", func(p *simParams) { p.Listen, p.Connect = ":1", ":2" }, "mutually exclusive"},
		{"negative-rate", func(p *simParams) { p.Connect, p.Rate = ":1", -5 }, "-rate"},
		{"rate-without-connect", func(p *simParams) { p.Rate = 100 }, "need -connect"},
		{"shutdown-without-connect", func(p *simParams) { p.Shutdown = true }, "need -connect"},
		{"snapshot-over-wire", func(p *simParams) { p.Tenants, p.Listen, p.SnapEvery = 2, ":1", 100 }, "not over the wire"},
		{"negative-cluster", func(p *simParams) { p.Cluster = -1 }, "-cluster"},
		{"negative-migrate-every", func(p *simParams) { p.MigrateEvery = -1 }, "-migrate-every"},
		{"migrate-without-cluster", func(p *simParams) { p.MigrateEvery = 1000 }, "needs -cluster"},
		{"cluster-and-listen", func(p *simParams) { p.Cluster, p.Listen = 2, ":1" }, "mutually exclusive"},
		{"cluster-and-connect", func(p *simParams) { p.Cluster, p.Connect = 2, ":1" }, "mutually exclusive"},
		{"cluster-and-snapshot", func(p *simParams) { p.Tenants, p.Cluster, p.SnapEvery = 2, 2, 100 }, "-cluster runs"},
		{"ready-file-without-listen", func(p *simParams) { p.ReadyFile = "addr.txt" }, "-ready-file needs -listen"},
		{"listen-check", func(p *simParams) { p.Tenants, p.Listen, p.Check = 4, ":1", true }, "a listener never sees"},
		{"zero-ingesters", func(p *simParams) { p.Ingesters = 0 }, "-ingesters must"},
		{"ingesters-over-wire", func(p *simParams) { p.Tenants, p.Listen, p.Ingesters = 2, ":1", 2 }, "use -conns"},
		{"ingesters-with-cluster", func(p *simParams) { p.Tenants, p.Cluster, p.Ingesters = 2, 2, 2 }, "drop -ingesters"},
		{"ingesters-with-snapshot", func(p *simParams) { p.Tenants, p.SnapEvery, p.Ingesters = 2, 100, 2 }, "need -ingesters 1"},
		{"ingesters-with-restore", func(p *simParams) { p.Tenants, p.Restore, p.Ingesters = 2, "x.snap", 2 }, "need -ingesters 1"},
		{"zero-conns", func(p *simParams) { p.Conns = 0 }, "-conns must"},
		{"conns-without-connect", func(p *simParams) { p.Conns = 2 }, "-conns needs -connect"},
		{"bad-tolerance", func(p *simParams) { p.EpsMinus = -0.5 }, "fraction tolerance"},
		{"rtp-bad-rank", func(p *simParams) { p.Proto, p.K, p.R = "rtp", 900, 200 }, "rtp needs"},
		{"zt-rp-bad-k", func(p *simParams) { p.Proto, p.K = "zt-rp", 0 }, "zt-rp needs"},
		{"ft-rp-bad-k", func(p *simParams) { p.Proto, p.K = "ft-rp", 1000 }, "ft-rp needs"},
		{"vb-knn-bad-k", func(p *simParams) { p.Proto, p.K = "vb-knn", 1001 }, "vb-knn needs"},
		{"vb-knn-bad-width", func(p *simParams) { p.Proto, p.Width = "vb-knn", -1 }, "width >= 0"},
		{"spatial-multi-query", func(p *simParams) { p.Proto, p.Queries = "rtp2d", 3 }, "single standing query"},
		{"spatial-listen", func(p *simParams) { p.Proto, p.Listen = "rtp2d", ":1" }, "in-process only"},
		{"spatial-connect", func(p *simParams) { p.Proto, p.Connect = "ft-rp2d", ":1" }, "in-process only"},
		{"spatial-cluster", func(p *simParams) { p.Proto, p.Cluster = "rtp2d", 2 }, "in-process only"},
		{"rtp2d-bad-rank", func(p *simParams) { p.Proto, p.K, p.R = "rtp2d", 900, 200 }, "rtp2d needs"},
		{"ft-rp2d-bad-k", func(p *simParams) { p.Proto, p.K = "ft-rp2d", 1000 }, "ft-rp2d needs"},
		{"ft-rp2d-bad-tol", func(p *simParams) { p.Proto, p.EpsPlus = "ft-rp2d", -2 }, "ft-rp2d"},
		{"selection-typo", func(p *simParams) { p.Selection = "bondary" }, "unknown selection"},
		{"inverted-range", func(p *simParams) { p.Tenants, p.Lo, p.Hi = 2, 600, 400 }, "empty range [600,400]"},
		{"inverted-range-single", func(p *simParams) { p.Lo, p.Hi = 600, 400 }, "empty range [600,400]"},
		{"non-finite-query-point", func(p *simParams) { p.Proto, p.Q = "rtp", math.Inf(1) }, "q is not finite"},
		{"nan-range-bound", func(p *simParams) { p.Lo = math.NaN() }, "not finite"},
		{"unknown-protocol", func(p *simParams) { p.Proto = "ft-npr" }, "unknown protocol"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := okParams()
			tc.mut(&p)
			err := p.validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestEpsFlags: -eps fills only the tolerance sides the command line left
// unset, and a negative -eps-plus or -eps-minus is refused by the run, not
// replaced by -eps.
func TestEpsFlags(t *testing.T) {
	p, err := parseFlags([]string{"-eps", "0.3", "-eps-plus", "0.1"}, io.Discard)
	if err != nil || p.EpsPlus != 0.1 || p.EpsMinus != 0.3 {
		t.Fatalf("-eps 0.3 -eps-plus 0.1: ε⁺/ε⁻ = %v/%v (err %v), want 0.1/0.3", p.EpsPlus, p.EpsMinus, err)
	}
	for _, side := range []string{"-eps-plus", "-eps-minus"} {
		err := run([]string{"-protocol", "ft-nrp", "-n", "50", "-events", "500", side, "-0.3"}, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "fraction tolerance") {
			t.Errorf("%s -0.3: err = %v, want a fraction-tolerance refusal", side, err)
		}
	}
}
