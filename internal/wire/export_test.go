package wire

import (
	"adaptivefilters/internal/runtime"
	"adaptivefilters/internal/snapshot"
)

// DecodeIngestChecked is DecodeIngestInto without the fused loop: every
// event goes through the Reader's checked primitives. FuzzDecodeIngest uses
// it as the oracle.
func DecodeIngestChecked(r *snapshot.Reader, dst []runtime.Event) ([]runtime.Event, error) {
	count, err := decodeIngestCount(r)
	if err != nil {
		return dst, err
	}
	return decodeEventsChecked(r, dst, count)
}

// EncodeIngestPerField is EncodeIngest a field at a time through the
// Writer's own primitives. FuzzEncodeIngest uses it as the reference.
func EncodeIngestPerField(p *snapshot.Writer, seq uint64, events []runtime.Event) {
	EncodeHeader(p, OpIngest, seq)
	p.Uvarint(uint64(len(events)))
	for i := range events {
		ev := &events[i]
		p.Uvarint(uint64(ev.Tenant))
		p.Uvarint(uint64(ev.Stream))
		p.Float64(ev.Value)
	}
}
