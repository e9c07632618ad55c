package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunExitCodes pins the CLI's exit-code contract: 0 for success and
// help, 2 for usage mistakes (with usage text on stderr), 1 for
// operational failures.
func TestRunExitCodes(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		code   int
		stderr string // required substring of stderr ("" = no requirement)
	}{
		{"no args", nil, 2, "usage: tracelens"},
		{"unknown subcommand", []string{"frobnicate"}, 2, `unknown subcommand "frobnicate"`},
		{"unknown subcommand shows usage", []string{"frobnicate"}, 2, "usage: tracelens"},
		{"top-level help", []string{"-h"}, 0, "usage: tracelens"},
		{"top-level help word", []string{"help"}, 0, "usage: tracelens"},
		{"subcommand help", []string{"summary", "-h"}, 0, "tracelens summary"},
		{"bad flag", []string{"summary", "-no-such-flag"}, 2, "flag provided but not defined"},
		{"missing log arg", []string{"summary"}, 2, "usage: tracelens summary LOG"},
		{"timeline arity", []string{"timeline", "a", "b"}, 2, "usage: tracelens timeline"},
		{"attribute bad flag", []string{"attribute", "-top=x", "log"}, 2, "invalid value"},
		{"carbon arity", []string{"carbon"}, 2, "usage: tracelens carbon"},
		{"whatif rejects args", []string{"whatif", "stray"}, 2, "usage: tracelens whatif"},
		{"whatif bad trace", []string{"whatif", "-trace", "nope"}, 2, `unknown -trace "nope"`},
		{"verify needs metrics", []string{"verify", "log"}, 2, "usage: tracelens verify -metrics FILE LOG"},
		{"diff arity", []string{"diff", "only-one"}, 2, "usage: tracelens diff"},
		{"doctor bad policy", []string{"doctor", "-policy", "warp", "log"}, 2, `unknown policy "warp"`},
		{"doctor fidelity arity", []string{"doctor", "fidelity", "stray"}, 2, "usage: tracelens doctor fidelity"},
		{"doctor fidelity has no -write", []string{"doctor", "fidelity", "-write", "x"}, 2, "flag provided but not defined: -write"},
		{"doctor fidelity has no -envelopes", []string{"doctor", "fidelity", "-envelopes", "x"}, 2, "flag provided but not defined: -envelopes"},
		{"shards arity", []string{"shards"}, 2, "usage: tracelens shards"},
		{"last arity", []string{"last", "a", "b"}, 2, "usage: tracelens last"},
		{"shards missing file", []string{"shards", "/no/such/stats.json"}, 1, "no/such/stats.json"},
		{"last missing dir", []string{"last", "/no/such/dir"}, 1, "no/such/dir"},
		{"missing log file", []string{"summary", "/no/such/file.events"}, 1, "no/such/file.events"},
		{"carbon missing log file", []string{"carbon", "/no/such/file.events"}, 1, "no/such/file.events"},
		{"carbon bad grid file", []string{"carbon", "-grid", "/no/such/grid.json", "testdata-absent.events"}, 1, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stderr bytes.Buffer
			code := run(c.args, &stderr)
			if code != c.code {
				t.Fatalf("run(%q) = %d, want %d (stderr: %s)", c.args, code, c.code, stderr.String())
			}
			if c.stderr != "" && !strings.Contains(stderr.String(), c.stderr) {
				t.Fatalf("run(%q) stderr %q lacks %q", c.args, stderr.String(), c.stderr)
			}
			if code == 2 && stderr.Len() == 0 {
				t.Fatalf("run(%q): usage error with empty stderr", c.args)
			}
		})
	}
}

// TestSummaryEmptyLog pins the empty-log contract: summary over a log with
// no events prints an explicit zero-event line and exits 0, instead of an
// opaque analysis error.
func TestSummaryEmptyLog(t *testing.T) {
	log := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(log, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	var stderr bytes.Buffer
	code := run([]string{"summary", log}, &stderr)
	w.Close()
	os.Stdout = old
	out, _ := io.ReadAll(r)
	r.Close()
	if code != 0 {
		t.Fatalf("summary on empty log exits %d (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(string(out), "0 (empty log)") {
		t.Fatalf("stdout %q lacks the explicit zero-event line", out)
	}
}
