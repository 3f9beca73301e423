package runtime

import (
	"context"
	"testing"
)

// fuzzSpecs is the fixed tenant configuration every fuzz input is decoded
// against: small, heterogeneous (FT-NRP with random selection, RTP, a
// multi-query composite tenant and a spatial rtp2d tenant, then a lossy
// twin of each kind), so cluster state in both dimensions, composite
// fabric state, protocol state, RNG positions and nonzero dropped-update
// counts all appear in the encoding.
func fuzzSpecs() []TenantSpec {
	specs := append(testSpecs(2, 10), qpSpec("fz-mq", 3, 10, 5), spatialSpec("fz-2d", 10, 7))
	for _, spec := range specs[1:] {
		spec.Name += "-lossy"
		spec.UplinkLoss = 0.3
		specs = append(specs, spec)
	}
	return specs
}

// churn drives tenant ti through three sweeps that move every stream
// across the whole value range, so every rank protocol rebuilds from its
// table several times: state a decoder let through corrupted surfaces here,
// not in production. It then drains.
func churn(t *testing.T, node *Node, ti int, spatial bool) {
	n := node.StreamCount(ti)
	evs := make([]Event, 0, 3*n)
	for round := 0; round < 3; round++ {
		for s := 0; s < n; s++ {
			ev := Event{Tenant: ti, Stream: s, Value: float64((s*37 + round*211) % 1000)}
			if spatial {
				ev.Y = float64((s*91 + round*53) % 1000)
			}
			evs = append(evs, ev)
		}
	}
	if err := node.Ingest(evs); err != nil {
		t.Fatalf("restored tenant %d refused events: %v", ti, err)
	}
	if err := node.Drain(); err != nil {
		t.Fatalf("restored node failed to drain: %v", err)
	}
}

// sealed appends a valid checksum trailer to a copy of payload, so a
// mutated payload reaches the structural decoder behind the integrity
// check.
func sealed(payload []byte) []byte { return seal(append([]byte(nil), payload...)) }

// validFuzzSnapshot produces a pristine snapshot of a short run, used both
// as the seed input and as the baseline the fuzzer mutates.
func validFuzzSnapshot(tb testing.TB) []byte {
	specs := fuzzSpecs()
	node, err := NewNode(Config{Shards: 2, Seed: 21}, specs)
	if err != nil {
		tb.Fatal(err)
	}
	if err := node.Start(context.Background()); err != nil {
		tb.Fatal(err)
	}
	defer node.Stop()
	for _, b := range testEvents(specs, 120, 17) {
		if err := node.Ingest(b); err != nil {
			tb.Fatal(err)
		}
	}
	snap, err := node.Snapshot()
	if err != nil {
		tb.Fatal(err)
	}
	requireDrops(tb, node, specs)
	return snap
}

// requireDrops fails unless every lossy tenant of a quiesced node has lost
// an update, so the seed inputs carry dropped counts for the fuzzer to
// mutate into the lossless-host refusal.
func requireDrops(tb testing.TB, node *Node, specs []TenantSpec) {
	for ti, spec := range specs {
		if spec.UplinkLoss > 0 && dropped(node, ti) == 0 {
			tb.Fatalf("lossy tenant %s dropped no update", spec.Name)
		}
	}
}

// FuzzRestoreNode pins the decode contract of ISSUE 4: RestoreNode must
// reject corrupted or truncated snapshots with an error — it must never
// panic, hang, or allocate unboundedly — and anything it does accept must
// yield a node that can start, serve events and snapshot again.
func FuzzRestoreNode(f *testing.F) {
	valid := validFuzzSnapshot(f)
	f.Add(valid)
	f.Add(valid[:len(valid)-8]) // payload without its checksum trailer
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:7])
	f.Add([]byte{})
	for i := 0; i < len(valid); i += 89 {
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0x5A
		f.Add(mut)
	}
	// tryRestore asserts the contract on one input: either a clean error,
	// or a node that can serve — start, answer, churn every tenant, drain,
	// re-snapshot — so latent decode corruption cannot hide until first use.
	tryRestore := func(t *testing.T, data []byte) {
		specs := fuzzSpecs()
		node, err := RestoreNode(Config{Shards: 2}, specs, data)
		if err != nil {
			return // rejected cleanly: exactly the contract
		}
		if err := node.Start(context.Background()); err != nil {
			t.Fatalf("restored node failed to start: %v", err)
		}
		defer node.Stop()
		_ = node.Report() // every live answer, before any churn
		for ti := 0; ti < node.NumTenants(); ti++ {
			if node.Alive(ti) {
				churn(t, node, ti, len(specs[ti].SpatialInitial) > 0)
			}
		}
		if _, err := node.Snapshot(); err != nil {
			t.Fatalf("restored node failed to re-snapshot: %v", err)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Raw path: arbitrary bytes mostly die on the checksum trailer.
		tryRestore(t, data)
		// Decoder path: treat the input as a payload.
		tryRestore(t, sealed(data))
	})
}

// FuzzImportTenant is FuzzRestoreNode for the migration primitive, whose
// bytes arrive off the wire (OpImportTenant): arbitrary input against a
// fixed spec of each tenant kind must yield a clean error or a tenant that
// ingests, drains and re-exports.
func FuzzImportTenant(f *testing.F) {
	specs := fuzzSpecs()
	src, err := NewNode(Config{Shards: 2, Seed: 21}, specs)
	if err != nil {
		f.Fatal(err)
	}
	if err := src.Start(context.Background()); err != nil {
		f.Fatal(err)
	}
	for _, b := range testEvents(specs, 120, 17) {
		if err := src.Ingest(b); err != nil {
			f.Fatal(err)
		}
	}
	for ti := range specs {
		valid, err := src.ExportTenant(ti)
		if err != nil {
			f.Fatal(err)
		}
		if specs[ti].UplinkLoss > 0 {
			// The record against its lossless twin, three slots earlier in
			// fuzzSpecs, is the refusal the fuzzer must reach.
			f.Add(uint8(ti-3), valid)
		}
		f.Add(uint8(ti), valid)
		f.Add(uint8(ti), valid[:len(valid)-8])
		f.Add(uint8(ti), valid[:len(valid)/2])
		for i := 0; i < len(valid); i += 89 {
			mut := append([]byte(nil), valid...)
			mut[i] ^= 0x5A
			f.Add(uint8(ti), mut)
		}
	}
	requireDrops(f, src, specs)
	src.Stop()
	tryImport := func(t *testing.T, spec TenantSpec, data []byte) {
		dst, err := NewNodeLabeled(Config{Seed: 21}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		defer dst.Stop()
		ti, err := dst.ImportTenant(spec, data)
		if err != nil {
			if dst.NumTenants() != 0 {
				t.Fatal("refused import still admitted a tenant")
			}
			return
		}
		churn(t, dst, ti, len(spec.SpatialInitial) > 0)
		if _, err := dst.ExportTenant(ti); err != nil {
			t.Fatalf("imported tenant failed to re-export: %v", err)
		}
	}
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		spec := specs[int(kind)%len(specs)]
		tryImport(t, spec, data)
		tryImport(t, spec, sealed(data))
	})
}
