// Package pintest is the digest half of internal/core's protocol pin
// tests: a running digest of everything a hosted protocol lets an observer
// see, and the golden-file comparison of its checkpoints (which the
// runtime's report pin uses too). The walks themselves (hosts, protocols,
// event laws) stay with the tests.
package pintest

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"adaptivefilters/internal/comm"
)

// Digest folds a protocol's observable trajectory into one running hash.
type Digest struct {
	h   hash.Hash64
	buf [8]byte
}

// NewDigest returns an empty digest.
func NewDigest() *Digest { return &Digest{h: fnv.New64a()} }

func (d *Digest) put(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.h.Write(d.buf[:])
}

// Event folds in the state after one delivered event: the answer, every
// (phase, kind) message count, ServerOps and the protocol's own rebuild
// counters (Deploys or Recomputes, and Reinits where there is one).
func (d *Digest) Event(answer []int, ctr *comm.Counter, rebuilds, reinits uint64) {
	d.put(uint64(len(answer)))
	for _, a := range answer {
		d.put(uint64(a))
	}
	for _, ph := range []comm.Phase{comm.Init, comm.Maintenance} {
		for _, k := range comm.Kinds() {
			d.put(ctr.Get(ph, k))
		}
	}
	d.put(ctr.ServerOps)
	d.put(rebuilds)
	d.put(reinits)
}

// Checkpoint renders the digest so far beside a few readable totals, so a
// mismatch says roughly what moved as well as when.
func (d *Digest) Checkpoint(walk string, events int, ctr *comm.Counter, rebuilds, reinits uint64) string {
	return fmt.Sprintf("%s %d %016x maint=%d ops=%d rebuilds=%d reinits=%d",
		walk, events, d.h.Sum64(), ctr.Maintenance(), ctr.ServerOps, rebuilds, reinits)
}

// Check compares the checkpoints with the golden file at path and fails at
// the first one that differs; with update set it rewrites the file instead.
func Check(t *testing.T, path string, got []string, update bool) {
	t.Helper()
	if update {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(want) != len(got) {
		t.Fatalf("%d pinned checkpoints, walks produced %d", len(want), len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("first differing checkpoint:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
