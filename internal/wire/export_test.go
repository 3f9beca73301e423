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
