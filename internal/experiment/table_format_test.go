package experiment

import (
	"strings"
	"testing"
)

// TestAddRowFormatting is a table-driven check of the cell formatter:
// integral floats render as integers, others with 4 significant digits, and
// non-floats via %v.
func TestAddRowFormatting(t *testing.T) {
	cases := []struct {
		name string
		cell any
		want string
	}{
		{"integral float", 42.0, "42"},
		{"negative integral float", -17.0, "-17"},
		{"zero", 0.0, "0"},
		{"fraction", 0.123456, "0.1235"},
		{"large non-integral", 12345.5, "1.235e+04"},
		{"huge integral beyond cutoff", 1e16, "1e+16"},
		{"negative huge", -1e16, "-1e+16"},
		{"int", 7, "7"},
		{"string", "ft-nrp", "ft-nrp"},
		{"bool", true, "true"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tb := NewTable("t", "c")
			tb.AddRow(tc.cell)
			if got := tb.Rows[0][0]; got != tc.want {
				t.Fatalf("AddRow(%v) cell = %q, want %q", tc.cell, got, tc.want)
			}
		})
	}
}

// TestFprintLayout checks alignment, the header rule, and note placement.
func TestFprintLayout(t *testing.T) {
	tb := NewTable("Figure X", "protocol", "msgs")
	tb.AddNote("n=%d streams", 100)
	tb.AddRow("rtp", 1234.0)
	tb.AddRow("ft-nrp(long-name)", 7.0)
	got := tb.String()

	want := strings.Join([]string{
		"Figure X",
		"  n=100 streams",
		"  protocol           msgs",
		"  -----------------  ----",
		"  rtp                1234",
		"  ft-nrp(long-name)  7",
		"",
	}, "\n")
	if got != want {
		t.Fatalf("Fprint layout:\n%q\nwant:\n%q", got, want)
	}
}

// TestCSVEscapingCases is a table-driven check of the CSV quoting rules.
func TestCSVEscapingCases(t *testing.T) {
	cases := []struct {
		name string
		cell string
		want string
	}{
		{"plain", "abc", "abc"},
		{"comma", "a,b", `"a,b"`},
		{"quote", `a"b`, `"a""b"`},
		{"newline", "a\nb", "\"a\nb\""},
		{"empty", "", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tb := NewTable("t", "col")
			tb.AddRow(tc.cell)
			var b strings.Builder
			if err := tb.CSV(&b); err != nil {
				t.Fatal(err)
			}
			if got, want := b.String(), "col\n"+tc.want+"\n"; got != want {
				t.Fatalf("CSV = %q, want %q", got, want)
			}
		})
	}
}

// TestCSVHeaderEscaping checks column names are escaped like cells.
func TestCSVHeaderEscaping(t *testing.T) {
	tb := NewTable("t", `messages, "maintenance"`)
	var b strings.Builder
	if err := tb.CSV(&b); err != nil {
		t.Fatal(err)
	}
	want := `"messages, ""maintenance"""` + "\n"
	if b.String() != want {
		t.Fatalf("header = %q, want %q", b.String(), want)
	}
}

// TestRowsWiderThanHeader checks extra cells don't panic Fprint and still
// render.
func TestRowsWiderThanHeader(t *testing.T) {
	tb := NewTable("t", "only")
	tb.AddRow("a", "spillover")
	got := tb.String()
	if !strings.Contains(got, "a") {
		t.Fatalf("row lost: %q", got)
	}
}
