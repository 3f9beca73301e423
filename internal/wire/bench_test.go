package wire_test

import (
	"testing"

	"adaptivefilters/internal/runtime"
	"adaptivefilters/internal/snapshot"
	"adaptivefilters/internal/wire"
)

// benchBatch is a wire-range-shaped ingest batch: 32 events over 8
// tenants of 250 streams, so ids take one or two varint bytes.
func benchBatch() []runtime.Event {
	events := make([]runtime.Event, 32)
	for i := range events {
		events[i] = runtime.Event{Tenant: i % 8, Stream: (i * 37) % 250, Value: 400 + float64(i)*6.25}
	}
	return events
}

// BenchmarkEncodeIngest prices EncodeIngest on a reused Writer, as a
// FrameWriter runs it, in ns per event.
func BenchmarkEncodeIngest(b *testing.B) {
	events := benchBatch()
	var p snapshot.Writer
	b.ReportAllocs()
	for b.Loop() {
		p.Reset()
		wire.EncodeIngest(&p, 1, events)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(events)), "ns/event")
}

// BenchmarkDecodeIngest prices DecodeIngestInto on the same batch into a
// reused slice, as a netserve connection runs it, in ns per event.
func BenchmarkDecodeIngest(b *testing.B) {
	events := benchBatch()
	var p snapshot.Writer
	wire.EncodeIngest(&p, 1, events)
	payload := p.Bytes()
	var r snapshot.Reader
	dst := make([]runtime.Event, 0, len(events))
	b.ReportAllocs()
	for b.Loop() {
		r.Reset(payload)
		if _, err := wire.DecodeHeader(&r); err != nil {
			b.Fatal(err)
		}
		var err error
		if dst, err = wire.DecodeIngestInto(&r, dst[:0]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(events)), "ns/event")
}
