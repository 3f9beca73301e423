package runtime

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"adaptivefilters/internal/snapshot"
)

// snapshotMagic and SnapshotVersion head every node snapshot. The version
// covers the whole encoding transitively — tenant layout, cluster state,
// protocol state — and is bumped on any incompatible change; RestoreNode
// rejects versions it does not know (DESIGN.md §6).
const (
	snapshotMagic = "adaptivefilters/node-snapshot"
	// SnapshotVersion is the current encoding version, the only one
	// RestoreNode accepts: every tenant record opens with an integer kind
	// discriminator, single-query and spatial records share one layout,
	// planar RTP and FT-RP write the 1-D protocols' state, every host
	// writes one uplink word, its dropped-update count, and a source writes
	// only its value, constraint and side (DESIGN.md §6.3). No snapshot was
	// ever deployed at an earlier version, so they are refused rather than
	// decoded.
	SnapshotVersion = 7
)

// Per-tenant kind discriminators.
const (
	tenantKindSingle  = 0
	tenantKindMulti   = 1
	tenantKindSpatial = 2
)

// Snapshot captures a barrier-consistent, versioned encoding of the node's
// full tenant state: for every live slot, the server value table, message
// counter, dropped-update count, pending queue, every source's
// value/filter/side, the protocol's dynamic state (including its
// selection-RNG position), and the event count; for multi-query tenants,
// the whole composite fabric (ground truth, shared table, per-stream
// constraint vectors and sides, the shared counter and dropped count, and
// every query slot's protocol state and seed label). It
// drains first, so the snapshot reflects exactly the events ingested
// before the call — the barrier every shard loop has passed.
//
// The encoding carries no placement information: a snapshot is
// byte-identical no matter how many shards the node runs, and RestoreNode
// may restore it at any shard count. Every hosted protocol must implement
// server.StatefulProtocol (all of internal/core does).
//
// Like the other control calls, Snapshot must be called from the single
// control-side goroutine; its barrier quiesces concurrent ingesters first,
// so the snapshot reflects exactly the batches whose Ingest returned before
// the barrier completed.
func (n *Node) Snapshot() ([]byte, error) {
	n.ingestMu.Lock()
	defer n.ingestMu.Unlock()
	if !n.started || n.stopped {
		return nil, fmt.Errorf("runtime: node not running")
	}
	if err := n.drainLocked(); err != nil {
		return nil, err
	}
	for ti, t := range n.tenants {
		if t != nil {
			if err := quarantined(ti, t); err != nil {
				return nil, err
			}
		}
	}
	w := snapshot.NewWriter()
	w.String(snapshotMagic)
	w.Uint64(SnapshotVersion)
	w.Int64(n.cfg.Seed)
	w.Int64(n.nextSeedID)
	w.Uint64(n.ingested.Load())
	w.Int(len(n.tenants))
	for ti, t := range n.tenants {
		w.Bool(t != nil)
		if t == nil {
			continue
		}
		if err := writeTenant(w, t); err != nil {
			return nil, fmt.Errorf("runtime: tenant %d (%s): %w", ti, t.name, err)
		}
	}
	if err := w.Err(); err != nil {
		return nil, err
	}
	return seal(w.Bytes()), nil
}

// writeTenant appends one tenant record: the head (kind, name, seed
// label), then the backend's body. Node and tenant snapshots share it.
func writeTenant(w *snapshot.Writer, t *tenant) error {
	w.Int64(t.kind())
	w.String(t.name)
	w.Int64(t.seedID)
	return t.export(w, t.events)
}

// readTenant decodes one tenant record written by writeTenant into a
// tenant built from spec for slot ti; label vets the recorded seed label
// before anything is built. The restored tenant is initialized.
func (n *Node) readTenant(r *snapshot.Reader, spec TenantSpec, ti int, label func(int64) error) (*tenant, error) {
	kind := r.Int64()
	name := r.String()
	seedID := r.Int64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if kind < tenantKindSingle || kind > tenantKindSpatial {
		return nil, fmt.Errorf("kind %d unknown", kind)
	}
	if err := label(seedID); err != nil {
		return nil, err
	}
	t, err := n.buildTenant(spec, ti, seedID, false)
	if err != nil {
		return nil, err
	}
	if kind != t.kind() {
		return nil, fmt.Errorf("snapshot holds a %s tenant, spec builds a %s tenant",
			kindName(kind), kindName(t.kind()))
	}
	if t.events, err = t.restore(r, spec); err != nil {
		return nil, err
	}
	t.name = name
	t.initialized = true
	return t, nil
}

// seal ends a snapshot payload with its trailing checksum: the structural
// validation on restore catches truncation and implausible values, but a
// flipped bit inside a float payload is a legal encoding of different
// state — only an integrity check can tell. It appends to payload.
func seal(payload []byte) []byte {
	return binary.LittleEndian.AppendUint64(payload, uint64(crc32.Checksum(payload, crcTable)))
}

// unseal checks a sealed snapshot's checksum, magic and version, and
// returns a reader over the rest; what names the snapshot in errors.
func unseal(data []byte, magic string, version uint64, what string) (*snapshot.Reader, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("runtime: not a %s", what)
	}
	payload, trailer := data[:len(data)-8], data[len(data)-8:]
	if got, want := binary.LittleEndian.Uint64(trailer), uint64(crc32.Checksum(payload, crcTable)); got != want {
		return nil, fmt.Errorf("runtime: %s checksum mismatch (stored %x, computed %x)", what, got, want)
	}
	r := snapshot.NewReader(payload)
	if m := r.String(); r.Err() != nil || m != magic {
		return nil, fmt.Errorf("runtime: not a %s", what)
	}
	if v := r.Uint64(); r.Err() != nil || v != version {
		return nil, fmt.Errorf("runtime: unsupported %s version %d (have %d)", what, v, version)
	}
	return r, nil
}

// crcTable is the Castagnoli polynomial, hardware-accelerated on the
// platforms the node serves from.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// RestoreNode rebuilds a node from a Snapshot. specs must describe the same
// tenants as the snapshotting node, one per slot in slot order — including
// slots that were already evicted (their specs are ignored) — with the same
// Initial values, UplinkLoss and protocol configuration; a multi-query
// tenant's spec must list one QuerySpec per query slot the tenant ever
// admitted, in admission order (for a node that never saw lifecycle changes
// that is simply the spec list NewNode was given). The snapshot's own seed
// overrides cfg.Seed, so protocol randomness and uplink loss resume at
// their recorded positions no matter what the caller passes.
//
// The restored node continues bit-identically: started (Start skips the t0
// phase for restored tenants) and fed the events after the snapshot
// barrier, its answers and counters match an uninterrupted run at any shard
// count. Corrupted, truncated or mismatched snapshots — and any encoding
// version but SnapshotVersion — return an error; decoding never panics.
func RestoreNode(cfg Config, specs []TenantSpec, data []byte) (*Node, error) {
	r, err := unseal(data, snapshotMagic, SnapshotVersion, "snapshot")
	if err != nil {
		return nil, err
	}
	seed := r.Int64()
	nextSeedID := r.Int64()
	ingested := r.Uint64()
	slots := r.Int()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if slots != len(specs) {
		return nil, fmt.Errorf("runtime: snapshot has %d tenant slots, got %d specs", slots, len(specs))
	}
	if slots <= 0 {
		return nil, fmt.Errorf("runtime: snapshot has no tenant slots")
	}
	cfg.Seed = seed
	n := &Node{cfg: cfg, nextSeedID: nextSeedID}
	n.ingested.Store(ingested)
	label := func(seedID int64) error {
		if seedID < 0 || seedID >= nextSeedID {
			return fmt.Errorf("seed label %d outside [0,%d)", seedID, nextSeedID)
		}
		return nil
	}
	for ti := 0; ti < slots; ti++ {
		alive := r.Bool()
		if err := r.Err(); err != nil {
			return nil, err
		}
		var t *tenant
		if alive {
			if t, err = n.readTenant(r, specs[ti], ti, label); err != nil {
				return nil, fmt.Errorf("runtime: tenant %d: %w", ti, err)
			}
		}
		n.tenants = append(n.tenants, t)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	n.initShards(cfg.shards())
	return n, nil
}

// kindName renders a kind discriminator for error messages.
func kindName(kind int64) string {
	switch kind {
	case tenantKindMulti:
		return "multi-query"
	case tenantKindSpatial:
		return "spatial"
	default:
		return "single-query"
	}
}

// TotalEvents returns how many events the node has accepted over its whole
// life — including events for since-evicted tenants, so after a restore it
// is exactly the number of merged-stream events the driver should skip to
// resume where the snapshot was taken, no matter what the tenant set did
// in between. Safe to call concurrently with ingest (atomic read), though a
// meaningful figure wants a barrier first.
func (n *Node) TotalEvents() uint64 { return n.ingested.Load() }
