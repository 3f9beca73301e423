package workload

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

func TestNewReplayValidation(t *testing.T) {
	if _, err := NewReplay("x", nil, nil); err == nil {
		t.Fatal("empty stream set accepted")
	}
	if _, err := NewReplay("x", []float64{1}, []Event{{Stream: 1}}); err == nil {
		t.Fatal("out-of-range stream accepted")
	}
	for _, bad := range []float64{math.Inf(1), math.Inf(-1)} {
		if _, err := NewReplay("x", []float64{1}, []Event{{Time: bad}}); err == nil {
			t.Fatalf("time %v accepted", bad)
		}
	}
	if _, err := NewReplay("x", []float64{1}, []Event{{Time: -1}}); err == nil {
		t.Fatal("negative time accepted")
	}
}

func TestNewReplaySortsEvents(t *testing.T) {
	events := []Event{
		{Time: 3, Stream: 0, Value: 30},
		{Time: 1, Stream: 0, Value: 10},
		{Time: 2, Stream: 0, Value: 20},
		{Time: 2, Stream: 0, Value: 21}, // tie keeps original order (stable)
	}
	r, err := NewReplay("t", []float64{0}, events)
	if err != nil {
		t.Fatal(err)
	}
	got := r.Events()
	wantVals := []float64{10, 20, 21, 30}
	for i, v := range wantVals {
		if got[i].Value != v {
			t.Fatalf("event %d value = %v, want %v (order %v)", i, got[i].Value, v, got)
		}
	}
}

func TestParseCSVBasics(t *testing.T) {
	csv := `time,stream,value
1,0,100
2,1,200
3,0,150
4,1,250
5,0,175
`
	r, err := ParseCSV("test", strings.NewReader(csv), 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.N() != 2 {
		t.Fatalf("N = %d, want 2", r.N())
	}
	init := r.Initial()
	if init[0] != 100 || init[1] != 200 {
		t.Fatalf("initial = %v, want first observations [100 200]", init)
	}
	if len(r.Events()) != 3 {
		t.Fatalf("len(Events) = %d, want 3 updates after seeding", len(r.Events()))
	}
	evs := r.Events()
	if evs[0].Value != 150 || evs[1].Value != 250 || evs[2].Value != 175 {
		t.Fatalf("updates = %v", evs)
	}
	// Every call returns the same trace.
	if again := r.Events(); len(again) != 3 || &again[0] != &evs[0] {
		t.Fatal("Events() did not return the same trace")
	}
}

func TestParseCSVExplicitN(t *testing.T) {
	r, err := ParseCSV("t", strings.NewReader("1,0,5\n"), 10)
	if err != nil {
		t.Fatal(err)
	}
	if r.N() != 10 {
		t.Fatalf("N = %d, want 10", r.N())
	}
}

func TestParseCSVErrors(t *testing.T) {
	cases := []struct {
		in   string
		n    int
		want string // in the error, when set
	}{
		{"1,0\n", 0, ""},               // short row
		{"x,0,5\n", 0, ""},             // bad time
		{"1,zero,5\n", 0, ""},          // bad stream
		{"1,0,five\n", 0, ""},          // bad value
		{"", 0, ""},                    // empty with no n
		{"time,stream,value\n", 0, ""}, // header only, no n
		{"1,0,5\n2,-1,6\n", 0, "line 2: stream -1"},
		{"1,0,5\n2,2,6\n", 2, "line 2: stream 2"},
		{"0,0,NaN\n", 0, "line 1: value: NaN"},        // would seed a NaN initial value
		{"0,0,1\n1,0,NaN\n", 0, "line 2: value: NaN"}, // would be a NaN update
		{"NaN,0,1\n", 0, "line 1: time: NaN"},         // would sort anywhere
		{"-1,0,5\n2,0,6\n", 0, "line 1: time -1"},     // would seed stream 0's initial value
		{"0,0,5\n-2,0,6\n", 0, "line 2: time -2"},
		{"Inf,0,1\n", 0, "line 1: time +Inf"},
		{"0,0,1\n-Inf,0,2\n", 0, "line 2: time -Inf"},
	}
	for i, c := range cases {
		_, err := ParseCSV("t", strings.NewReader(c.in), c.n)
		if err == nil {
			t.Fatalf("case %d accepted: %q (n=%d)", i, c.in, c.n)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("case %d: err = %v, want it to name %q", i, err, c.want)
		}
	}
}

// TestParseCSVTakesInfiniteValues pins that an infinite value parses, as
// an initial value and as an update: the runtime takes ±Inf updates.
func TestParseCSVTakesInfiniteValues(t *testing.T) {
	r, err := ParseCSV("t", strings.NewReader("0,0,Inf\n1,0,-Inf\n"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if init, evs := r.Initial(), r.Events(); !math.IsInf(init[0], 1) || len(evs) != 1 || !math.IsInf(evs[0].Value, -1) {
		t.Fatalf("Initial/Events = %v/%v, want [+Inf]/one -Inf update", init, evs)
	}
}

func TestParseCSVHeaderOnlyWithN(t *testing.T) {
	r, err := ParseCSV("t", strings.NewReader("time,stream,value\n"), 4)
	if err != nil {
		t.Fatal(err)
	}
	if r.N() != 4 || len(r.Events()) != 0 {
		t.Fatalf("N/len(Events) = %d/%d", r.N(), len(r.Events()))
	}
}

func TestReplayRoundTripsTracegenOutput(t *testing.T) {
	// Generate a TCP-like trace, serialize it the way cmd/tracegen does,
	// parse it back, and confirm the replayed events match the original
	// (modulo the first-observation seeding).
	w, err := NewTCPLike(DefaultTCPLike(2000, 5))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("time,stream,value\n")
	orig := w.Events()
	for _, ev := range orig {
		b.WriteString(formatCSV(ev))
	}
	r, err := ParseCSV("tcp", strings.NewReader(b.String()), w.N())
	if err != nil {
		t.Fatal(err)
	}
	replayed := r.Events()
	// Each stream's first event seeds Initial; verify counts reconcile.
	firsts := map[int]bool{}
	var expected []Event
	for _, ev := range orig {
		if !firsts[ev.Stream] {
			firsts[ev.Stream] = true
			continue
		}
		expected = append(expected, ev)
	}
	if len(replayed) != len(expected) {
		t.Fatalf("replayed %d events, want %d", len(replayed), len(expected))
	}
	for i := range expected {
		if replayed[i].Stream != expected[i].Stream {
			t.Fatalf("event %d stream = %d, want %d", i, replayed[i].Stream, expected[i].Stream)
		}
		if !closeEnough(replayed[i].Value, expected[i].Value) ||
			!closeEnough(replayed[i].Time, expected[i].Time) {
			t.Fatalf("event %d = %+v, want %+v", i, replayed[i], expected[i])
		}
	}
}

func formatCSV(ev Event) string {
	return strconv.FormatFloat(ev.Time, 'g', 17, 64) + "," +
		strconv.Itoa(ev.Stream) + "," +
		strconv.FormatFloat(ev.Value, 'g', 17, 64) + "\n"
}

func closeEnough(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := b
	if scale < 0 {
		scale = -scale
	}
	if scale < 1 {
		scale = 1
	}
	return d/scale < 1e-9
}
