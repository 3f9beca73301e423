package main

import (
	"errors"
	"flag"
	"io"
	"strings"
	"testing"
)

// TestRunArgs holds the command line to its contract: a bad -scale or an
// unknown figure is a usage error (exit 2) that names the problem, and a
// good command line prints the table.
func TestRunArgs(t *testing.T) {
	cases := []struct {
		args   []string
		err    string // in the usage error, when one is wanted
		stdout string // in the output, when none is
	}{
		{args: []string{"-scale", "NaN"}, err: "-scale must be a positive finite number, got NaN"},
		{args: []string{"-scale", "-2"}, err: "got -2"},
		{args: []string{"-scale", "0"}, err: "got 0"},
		{args: []string{"-scale", "+Inf"}, err: "got +Inf"},
		{args: []string{"-figure", "5"}, err: "unknown figure 5 (have 1, 9, 10, 11, 12, 13, 14, 15, 16)"},
		{args: []string{"-no-such-flag"}, err: "not defined"},
		{args: []string{"-figure", "14", "-scale", "0.01"}, stdout: "Figure 14"},
		{args: []string{"-figure", "14", "-scale", "0.01", "-csv"}, stdout: "boundary-nearest"},
	}
	for _, c := range cases {
		var out strings.Builder
		err := run(c.args, &out, io.Discard)
		var usage usageError
		switch {
		case c.err == "" && err != nil:
			t.Errorf("%v: %v", c.args, err)
		case c.err == "" && !strings.Contains(out.String(), c.stdout):
			t.Errorf("%v printed %q, want it to contain %q", c.args, out.String(), c.stdout)
		case c.err != "" && (err == nil || !strings.Contains(err.Error(), c.err)):
			t.Errorf("%v: err = %v, want it to contain %q", c.args, err, c.err)
		case c.err != "" && !errors.As(err, &usage):
			t.Errorf("%v: err = %v is not a usage error", c.args, err)
		case c.err != "" && out.Len() != 0:
			t.Errorf("%v failed after printing %q", c.args, out.String())
		}
	}
	if err := run([]string{"-h"}, io.Discard, io.Discard); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h: err = %v, want flag.ErrHelp", err)
	}
}
