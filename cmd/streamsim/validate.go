package main

import (
	"fmt"

	"adaptivefilters/internal/protospec"
)

// simParams holds every parsed flag value, so flag validation is one pure
// function with table-driven tests and every mode reads one description. A
// bad combination must exit non-zero with a message, not panic in a
// protocol constructor or silently run a default.
type simParams struct {
	Workload, Trace          string
	Proto                    string
	N, Events                int
	Sigma                    float64
	Seed                     int64
	Lo, Hi                   float64
	K, R                     int
	Q, QX, QY                float64
	Top                      bool
	Width                    float64
	EpsPlus, EpsMinus        float64 // resolved: -eps overridden by -eps-plus/-eps-minus
	Selection                string
	Check                    bool
	CheckEvery               int
	Verbose                  bool
	Tenants, Queries, Shards int
	Batch, Ingesters, Conns  int
	Answers                  string
	SnapEvery                int
	SnapFile, Restore        string
	Cluster, MigrateEvery    int
	Listen, Connect          string
	ReadyFile                string
	Rate                     float64
	Shutdown                 bool
}

// wireMode reports whether the run is a serving-plane endpoint.
func (p simParams) wireMode() bool { return p.Listen != "" || p.Connect != "" }

// clusterMode reports whether the run hosts a multi-member cluster.
func (p simParams) clusterMode() bool { return p.Cluster > 0 }

// spatialMode reports whether the run hosts 2-D spatial tenants.
func (p simParams) spatialMode() bool { return p.spec(0).Spatial() }

// spec is standing query j's declarative description — the only form in
// which this command knows a protocol. Range windows shift by a quarter
// span per query (staying overlapped, where composite sharing matters),
// k-NN centers by an eighth span of the range flags; query 0 is exactly
// the configured query.
func (p simParams) spec(j int) protospec.Spec {
	span := p.Hi - p.Lo
	shift := float64(j) * span / 4
	return protospec.Spec{
		Protocol: p.Proto, Lo: p.Lo + shift, Hi: p.Hi + shift,
		K: p.K, R: p.R, Q: p.Q + float64(j)*span/8, Top: p.Top,
		EpsPlus: p.EpsPlus, EpsMinus: p.EpsMinus, Width: p.Width,
		Selection: p.Selection, QX: p.QX, QY: p.QY,
	}
}

// validate returns the first violated flag constraint. The protocol's own
// parameters are protospec's to judge, in every mode alike.
func (p simParams) validate() error {
	switch {
	case p.Tenants < 1:
		return fmt.Errorf("-tenants must be at least 1, got %d", p.Tenants)
	case p.Queries < 1:
		return fmt.Errorf("-queries must be at least 1, got %d", p.Queries)
	case p.Shards == 0 || p.Shards < -1:
		return fmt.Errorf("-shards must be positive or -1 for GOMAXPROCS, got %d", p.Shards)
	case p.N < 1:
		return fmt.Errorf("-n must be at least 1, got %d", p.N)
	case p.Events < 0:
		return fmt.Errorf("-events must be non-negative, got %d", p.Events)
	case p.Batch < 1:
		return fmt.Errorf("-batch must be positive, got %d", p.Batch)
	case p.CheckEvery < 1:
		return fmt.Errorf("-check-every must be positive, got %d", p.CheckEvery)
	case p.SnapEvery < 0:
		return fmt.Errorf("-snapshot-every must be non-negative, got %d", p.SnapEvery)
	}
	switch {
	case p.Cluster < 0:
		return fmt.Errorf("-cluster must be non-negative, got %d", p.Cluster)
	case p.MigrateEvery < 0:
		return fmt.Errorf("-migrate-every must be non-negative, got %d", p.MigrateEvery)
	case p.MigrateEvery > 0 && !p.clusterMode():
		return fmt.Errorf("-migrate-every needs -cluster")
	case p.clusterMode() && p.wireMode():
		return fmt.Errorf("-cluster hosts in-process members; it is mutually exclusive with -listen/-connect")
	case p.clusterMode() && (p.SnapEvery > 0 || p.Restore != ""):
		return fmt.Errorf("node snapshots belong to single-node runs; migration already snapshots per tenant, so drop -snapshot-every/-restore from -cluster runs")
	}
	switch {
	case p.Listen != "" && p.Connect != "":
		return fmt.Errorf("-listen and -connect are mutually exclusive: a process is one end of the wire")
	case p.Rate < 0:
		return fmt.Errorf("-rate must be non-negative, got %g", p.Rate)
	case (p.Rate > 0 || p.Shutdown) && p.Connect == "":
		return fmt.Errorf("-rate and -shutdown need -connect")
	case p.ReadyFile != "" && p.Listen == "":
		return fmt.Errorf("-ready-file needs -listen")
	case p.Check && p.Listen != "":
		return fmt.Errorf("-check audits against the workload's ground truth, which a listener never sees (it applies what clients send); pass -check to the -connect side")
	case p.wireMode() && (p.SnapEvery > 0 || p.Restore != ""):
		return fmt.Errorf("snapshots are driven by the node owner's local flags, not over the wire; drop -snapshot-every/-restore from -listen/-connect runs")
	}
	switch {
	case p.Ingesters < 1:
		return fmt.Errorf("-ingesters must be at least 1, got %d", p.Ingesters)
	case p.Ingesters > 1 && p.wireMode():
		return fmt.Errorf("-ingesters fans out local node ingest; on the wire each connection already ingests concurrently (use -conns with -connect)")
	case p.Ingesters > 1 && p.clusterMode():
		return fmt.Errorf("-ingesters fans out local node ingest; -cluster routes through its own router (drop -ingesters)")
	case p.Ingesters > 1 && (p.SnapEvery > 0 || p.Restore != ""):
		return fmt.Errorf("-snapshot-every/-restore resume by replaying a sequential ingest prefix, which concurrent ingesters do not produce; they need -ingesters 1")
	case p.Conns < 1:
		return fmt.Errorf("-conns must be at least 1, got %d", p.Conns)
	case p.Conns > 1 && p.Connect == "":
		return fmt.Errorf("-conns needs -connect")
	}
	if p.spatialMode() {
		switch {
		case p.Queries > 1:
			return fmt.Errorf("%s tenants host a single standing query; drop -queries", p.Proto)
		case p.wireMode():
			return fmt.Errorf("%s runs in-process only; the serving plane does not carry spatial tenants yet (drop -listen/-connect)", p.Proto)
		case p.clusterMode():
			return fmt.Errorf("%s runs in-process only; the cluster plane does not place spatial tenants yet (drop -cluster)", p.Proto)
		}
	}
	return p.spec(0).Validate(p.N)
}
