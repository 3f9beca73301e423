package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// matrixGroup is one tenant configuration of the determinism matrix: a
// reference run and the variants whose -answers dump must be byte-identical
// to the reference's.
type matrixGroup struct {
	name   string
	common string // workload and protocol flags every run of the group shares
	ref    string // the reference run's own flags
	checks []matrixCheck
}

// matrixCheck is one variant. By default it is a single in-process run with
// flags. With restore set, flags is a -snapshot-every run and a second run
// with the restore flags resumes from its last snapshot. With connect set,
// flags is a loopback -listen run and a -connect run with the connect flags
// drives it; the served node's dump and the wire-fetched one are both
// compared. Every dump a check produces must equal the reference's, and
// every run that plays the workload — all but the listeners — runs under
// -check and must report zero oracle
// violations: the rows are lossless, so the paper's guarantee holds on each
// of these paths or the row fails.
type matrixCheck struct {
	name    string
	flags   string
	restore string
	connect string
	wide    bool // the widest rows, skipped under -short
}

// determinismMatrix holds every byte-comparison the house invariant rests
// on: answers, counters and totals must not depend on the shard count, the
// ingester count, a snapshot/restore cut, the member count and migration
// history of a cluster, or on crossing the wire.
var determinismMatrix = []matrixGroup{
	{
		// A lone 1-D tenant, no -tenants flag: it runs on the same node
		// driver as every other mode, its seeds derived as tenant 0's.
		name: "single", common: "-n 150 -events 5000 -protocol ft-nrp -selection random", ref: "-shards 1",
		checks: []matrixCheck{
			{name: "shards=2", flags: "-shards 2"},
			{name: "ingesters=2", flags: "-shards 1 -ingesters 2"},
			{name: "restore/2to1", flags: "-shards 2 -snapshot-every 2000", restore: "-shards 1"},
			{name: "cluster=1", flags: "-shards 2 -cluster 1"},
		},
	},
	{
		name: "ft-nrp", common: "-tenants 8 -n 150 -events 5000 -protocol ft-nrp", ref: "-shards 1",
		checks: []matrixCheck{
			{name: "shards=4", flags: "-shards 4"},
			{name: "ingesters=4/shards=1", flags: "-shards 1 -ingesters 4"},
			{name: "ingesters=4/shards=4", flags: "-shards 4 -ingesters 4"},
			{name: "ingesters=4/shards=8", flags: "-shards 8 -ingesters 4", wide: true},
			{name: "cluster=1", flags: "-shards 2 -cluster 1"},
			{name: "cluster=3/migrating", flags: "-shards 3 -cluster 3 -migrate-every 2000"},
		},
	},
	{
		name: "rtp", common: "-tenants 8 -n 150 -events 5000 -protocol rtp", ref: "-shards 1",
		checks: []matrixCheck{{name: "shards=4", flags: "-shards 4"}},
	},
	{
		// Random silent-filter selection is the one consumer of protocol
		// seeds: this group fails if a seed label ever depends on placement.
		name: "ft-nrp-random", common: "-tenants 8 -n 150 -events 5000 -protocol ft-nrp -selection random", ref: "-shards 1",
		checks: []matrixCheck{
			{name: "shards=4/ingesters=2", flags: "-shards 4 -ingesters 2"},
			{name: "restore/4to2", flags: "-shards 4 -snapshot-every 9000", restore: "-shards 2"},
			{name: "cluster=3/migrating", flags: "-shards 2 -cluster 3 -migrate-every 2000"},
		},
	},
	{
		// Answer() charges VB-kNN server ops, so this group also pins that
		// rendering a summary never leaks into the dump.
		name: "vb-knn", common: "-tenants 3 -n 100 -events 2000 -protocol vb-knn -k 10", ref: "-shards 1",
		checks: []matrixCheck{{name: "cluster=2", flags: "-shards 2 -cluster 2"}},
	},
	{
		name: "ft-nrp-cut", common: "-tenants 6 -n 120 -events 2000 -protocol ft-nrp", ref: "-shards 2",
		checks: []matrixCheck{
			{name: "restore/2to8", flags: "-shards 2 -snapshot-every 4000", restore: "-shards 8"},
		},
	},
	{
		name: "rtp-cut", common: "-tenants 6 -n 120 -events 2000 -protocol rtp", ref: "-shards 4",
		checks: []matrixCheck{
			{name: "restore/4to1", flags: "-shards 4 -snapshot-every 4000", restore: "-shards 1"},
		},
	},
	{
		name: "multiquery-ft-nrp", common: "-tenants 4 -queries 3 -n 120 -events 3000 -protocol ft-nrp", ref: "-shards 1",
		checks: []matrixCheck{
			{name: "shards=4", flags: "-shards 4"},
			{name: "restore/4to8", flags: "-shards 4 -snapshot-every 5000", restore: "-shards 8"},
		},
	},
	{
		name: "multiquery-rtp", common: "-tenants 2 -queries 4 -n 100 -events 2000 -protocol rtp", ref: "-shards 1",
		checks: []matrixCheck{{name: "shards=4", flags: "-shards 4"}},
	},
	{
		name: "multiquery-rtp-cluster", common: "-tenants 4 -queries 3 -n 120 -events 3000 -protocol rtp", ref: "-shards 2",
		checks: []matrixCheck{
			{name: "cluster=3/migrating", flags: "-shards 2 -cluster 3 -migrate-every 1500"},
		},
	},
	{
		name: "rtp2d", common: "-tenants 4 -n 120 -events 4000 -protocol rtp2d -k 5 -r 3", ref: "-shards 1",
		checks: []matrixCheck{
			{name: "shards=4", flags: "-shards 4"},
			{name: "restore/4to8", flags: "-shards 4 -snapshot-every 6000", restore: "-shards 8"},
		},
	},
	{
		name: "ft-rp2d", common: "-tenants 4 -n 120 -events 4000 -protocol ft-rp2d -k 6 -eps 0.3", ref: "-shards 4",
		checks: []matrixCheck{
			{name: "restore/4to1", flags: "-shards 4 -snapshot-every 6000", restore: "-shards 1"},
		},
	},
	{
		// Random selection in the plane: the tenant seed reaches ft-rp2d and
		// its record carries the selection RNG's position, so a restore
		// resumes the same draws. k = 20 gives FT-RP silent-filter budgets
		// to draw for (at k = 6 they round to zero and nothing is drawn).
		name: "ft-rp2d-random", common: "-tenants 4 -n 120 -events 4000 -protocol ft-rp2d -k 20 -eps 0.3 -selection random", ref: "-shards 4",
		checks: []matrixCheck{
			{name: "restore/4to1", flags: "-shards 4 -snapshot-every 6000", restore: "-shards 1"},
		},
	},
	{
		// Over the wire a sample is a Drain and a Report round trip each, so
		// the connectors audit once per default batch, not every 10 events.
		name: "wire", common: "-tenants 8 -queries 2 -n 150 -events 4000 -protocol ft-nrp", ref: "-shards 1",
		checks: []matrixCheck{
			{name: "loopback/shards=1", flags: "-shards 1", connect: "-rate 150000 -check-every 512"},
			{name: "loopback/shards=4", flags: "-shards 4", connect: "-rate 150000 -check-every 512"},
			{name: "loopback/shards=4/conns=4", flags: "-shards 4", connect: "-rate 150000 -conns 4", wide: true},
		},
	},
}

// simulate runs the command in-process with an -answers dump under dir and
// returns the dump and what the run printed.
func simulate(dir string, flags ...string) (dump []byte, stdout string, err error) {
	file := filepath.Join(dir, "answers.txt")
	var args []string
	for _, f := range flags {
		args = append(args, strings.Fields(f)...)
	}
	var out bytes.Buffer
	if err := run(append(args, "-answers", file), &out, io.Discard); err != nil {
		return nil, "", fmt.Errorf("streamsim %s: %w", strings.Join(args, " "), err)
	}
	dump, err = os.ReadFile(file)
	return dump, out.String(), err
}

// oracleClean matches the oracle line of a run that audited something and
// found nothing: "0 checks, 0 violations" certifies no path.
var oracleClean = regexp.MustCompile(`(?m) [1-9][0-9]* checks, 0 violations$`)

// mustSimulate is simulate for the test's own goroutine. The run is under
// -check and must hold the paper's guarantee at one sample at least.
func mustSimulate(t *testing.T, flags ...string) []byte {
	t.Helper()
	flags = append(flags, "-check")
	data, stdout, err := simulate(t.TempDir(), flags...)
	if err != nil {
		t.Fatal(err)
	}
	if !oracleClean.MatchString(stdout) {
		t.Fatalf("streamsim %s: oracle did not report checks with zero violations:\n%s", strings.Join(flags, " "), stdout)
	}
	return data
}

// loopback serves one -listen run and drives it with one -connect run,
// returning the served node's dump and the wire-fetched one.
func loopback(t *testing.T, listen, connect string) (served, fetched []byte) {
	t.Helper()
	dir := t.TempDir()
	ready := filepath.Join(dir, "ready.txt")
	var listenErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		served, _, listenErr = simulate(dir, listen, "-listen 127.0.0.1:0 -ready-file", ready)
	}()
	var addr []byte
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(5 * time.Millisecond) {
		var err error
		if addr, err = os.ReadFile(ready); err == nil {
			break
		}
		select {
		case <-done:
			t.Fatalf("listener exited before becoming ready: %v", listenErr)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("listener never became ready")
		}
	}
	fetched = mustSimulate(t, connect, "-shutdown -connect", string(addr))
	<-done
	if listenErr != nil {
		t.Fatal(listenErr)
	}
	return served, fetched
}

// TestDeterminismMatrix is the house invariant as one table: every variant
// of every group must dump the reference's exact bytes.
func TestDeterminismMatrix(t *testing.T) {
	for _, g := range determinismMatrix {
		g := g
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			want := mustSimulate(t, g.common, g.ref)
			if !bytes.Contains(want, []byte("totals {")) {
				t.Fatalf("reference dump looks wrong:\n%s", want)
			}
			for _, c := range g.checks {
				if c.wide && testing.Short() {
					continue
				}
				dumps := map[string][]byte{}
				switch {
				case c.restore != "":
					snap := filepath.Join(t.TempDir(), "cut.snap")
					dumps["snapshotting"] = mustSimulate(t, g.common, c.flags, "-snapshot-file", snap)
					dumps["restored"] = mustSimulate(t, g.common, c.restore, "-restore", snap)
				case c.connect != "":
					dumps["served"], dumps["wire-fetched"] = loopback(t, g.common+" "+c.flags, g.common+" "+c.connect)
				default:
					dumps["run"] = mustSimulate(t, g.common, c.flags)
				}
				for what, got := range dumps {
					if !bytes.Equal(got, want) {
						t.Errorf("%s: %s dump differs from the reference (%s)\n got:\n%s\nwant:\n%s",
							c.name, what, g.ref, got, want)
					}
				}
			}
		})
	}
}

// TestSingleSimulationCheck drives a lone protospec-compiled 1-D tenant (no
// -tenants flag) under the oracle for every 1-D protocol.
func TestSingleSimulationCheck(t *testing.T) {
	cases := []struct{ name, flags string }{
		{"no-filter", "-protocol no-filter"},
		{"zt-nrp", "-protocol zt-nrp"},
		{"ft-nrp", "-protocol ft-nrp -eps 0.2"},
		{"ft-nrp-random", "-protocol ft-nrp -eps 0.2 -selection random"},
		{"rtp", "-protocol rtp -k 10 -r 4"},
		{"rtp-top", "-protocol rtp -k 10 -r 4 -top"},
		{"zt-rp", "-protocol zt-rp -k 10"},
		{"ft-rp", "-protocol ft-rp -k 10 -eps 0.3 -selection boundary"},
		{"ft-rp-random", "-protocol ft-rp -k 10 -eps 0.3 -selection random"},
		// The value-based baseline promises no rank, only that no member is
		// more than the width farther than the true k-th nearest.
		{"vb-knn", "-protocol vb-knn -k 10 -width 40"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			args := append(strings.Fields(tc.flags), "-n", "120", "-events", "3000", "-check")
			if err := run(args, &out, io.Discard); err != nil {
				t.Fatal(err)
			}
			if !oracleClean.MatchString(out.String()) {
				t.Fatalf("oracle did not report checks with zero violations:\n%s", &out)
			}
		})
	}
}
