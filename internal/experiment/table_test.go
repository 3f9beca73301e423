package experiment

import (
	"strings"
	"testing"
)

func sample() *Table {
	t := NewTable("Sample", "r", "messages")
	t.AddNote("note %d", 1)
	t.AddRow(0, uint64(120))
	t.AddRow(5, uint64(42))
	t.AddRow("x,y", 3.5)
	return t
}

func TestFprintAligned(t *testing.T) {
	out := sample().String()
	if !strings.Contains(out, "Sample") {
		t.Fatalf("missing title:\n%s", out)
	}
	if !strings.Contains(out, "note 1") {
		t.Fatalf("missing note:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// title + note + header + rule + 3 rows = 7 lines
	if len(lines) != 7 {
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[2], "r") || !strings.Contains(lines[2], "messages") {
		t.Fatalf("header line wrong: %q", lines[2])
	}
	if !strings.Contains(lines[3], "---") {
		t.Fatalf("rule line wrong: %q", lines[3])
	}
}

func TestFloatFormatting(t *testing.T) {
	tbl := NewTable("T", "v")
	tbl.AddRow(3.0)
	tbl.AddRow(3.14159)
	if tbl.Rows[0][0] != "3" {
		t.Fatalf("integral float rendered %q", tbl.Rows[0][0])
	}
	if tbl.Rows[1][0] != "3.142" {
		t.Fatalf("float rendered %q", tbl.Rows[1][0])
	}
}

func TestCSVEscaping(t *testing.T) {
	var b strings.Builder
	if err := sample().CSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "r,messages" {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(out, `"x,y"`) {
		t.Fatalf("comma cell not quoted:\n%s", out)
	}
}

func TestCSVQuoteDoubling(t *testing.T) {
	tbl := NewTable("T", `a"b`)
	tbl.AddRow(`c"d`)
	var b strings.Builder
	if err := tbl.CSV(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `"a""b"`) || !strings.Contains(b.String(), `"c""d"`) {
		t.Fatalf("quotes not doubled: %s", b.String())
	}
}

func TestEmptyTable(t *testing.T) {
	tbl := NewTable("Empty", "a")
	if out := tbl.String(); !strings.Contains(out, "Empty") {
		t.Fatalf("empty table output: %q", out)
	}
}
