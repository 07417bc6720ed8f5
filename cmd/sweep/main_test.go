package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"sprinklers/internal/service"
)

// sweep runs the command in-process and returns its exit status, stdout
// and stderr.
func sweep(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// mustSweep runs the command and fails the test unless it exits 0.
func mustSweep(t *testing.T, args ...string) string {
	t.Helper()
	code, stdout, stderr := sweep(t, args...)
	if code != 0 {
		t.Fatalf("sweep %s: exit %d\n%s", strings.Join(args, " "), code, stderr)
	}
	return stdout
}

// TestREADMEFigureCommands runs every sweep command of the README's
// figure-regeneration block, the simulated full-horizon ones at 2 000
// slots, and requires the curve or table each renders. A command added to
// or changed in the block fails here until it has an expectation.
func TestREADMEFigureCommands(t *testing.T) {
	type check struct {
		extra []string // appended to the README's arguments
		want  []string // regexps stdout must match
		rows  int      // > 0: exact number of load rows
	}
	checks := map[string]check{
		"-builtin fig6":                             {extra: []string{"-slots", "2000", "-quiet"}, want: []string{`(?m)load-balanced .* sprinklers$`}, rows: 11},
		"-builtin fig7":                             {extra: []string{"-slots", "2000", "-quiet"}, want: []string{`(?m)load-balanced .* sprinklers$`}, rows: 11},
		"-builtin fig5":                             {extra: []string{"-quiet"}, want: []string{`(?m)^ *1024 *4603\.5$`}},
		"-builtin table1":                           {extra: []string{"-quiet"}, want: []string{`(?m)^0\.97 .*3\.90e-07$`}},
		"-kind markov -loads 0.9 -ns 8,16,32":       {extra: []string{"-quiet"}, want: []string{`(?m)^ *32 *139\.5$`}},
		"-kind bound -loads 0.9,0.95 -ns 1024,8192": {extra: []string{"-quiet"}, want: []string{`N=8192`}},
		"-algs sprinklers -ns 32 -loads 0.9 -slots 2000 -detail -quiet": {want: []string{`(?m)^sprinklers .* 32 .* 0\.90 `}},
		"-builtin flashcrowd -ns 16 -loads 0.8 -slots 2000 -quiet":      {want: []string{`N=16 load=0\.8 scenario=flashcrowd`}},
		// The block's comment names -switchwide on the table1 line.
		"-builtin table1 -switchwide": {extra: []string{"-quiet"}, want: []string{`(?i)switch-wide`}},
	}

	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, block, ok := strings.Cut(string(readme), "## Regenerating the paper's figures and tables\n\n```sh\n")
	if !ok {
		t.Fatal("README has no figure-regeneration block")
	}
	block, _, _ = strings.Cut(block, "```")
	cmds := []string{"-builtin table1 -switchwide"}
	for _, line := range strings.Split(block, "\n") {
		if args, ok := strings.CutPrefix(line, "go run ./cmd/sweep "); ok {
			args, _, _ = strings.Cut(args, "#")
			cmds = append(cmds, strings.Join(strings.Fields(args), " "))
		}
	}
	if len(cmds) != len(checks) {
		t.Errorf("README block has %d sweep commands (plus -switchwide), the test checks %d: %q", len(cmds)-1, len(checks), cmds)
	}
	for _, cmd := range cmds {
		c, ok := checks[cmd]
		if !ok {
			t.Errorf("README command %q has no expectation", cmd)
			continue
		}
		out := mustSweep(t, append(strings.Fields(cmd), c.extra...)...)
		for _, re := range c.want {
			if !regexp.MustCompile(re).MatchString(out) {
				t.Errorf("sweep %s: output does not match %s:\n%s", cmd, re, out)
			}
		}
		if rows := len(regexp.MustCompile(`(?m)^0\.`).FindAllString(out, -1)); c.rows > 0 && rows != c.rows {
			t.Errorf("sweep %s: %d load rows, want %d:\n%s", cmd, rows, c.rows, out)
		}
	}
}

// TestResumeFromTornCheckpoint: a checkpoint cut where a kill -9 would cut
// it — a prefix of the recorded points plus a partial trailing record —
// resumes through -out to a file byte-identical to an uninterrupted run's,
// and the resumed run renders the same tables and CSV.
func TestResumeFromTornCheckpoint(t *testing.T) {
	for _, builtin := range []string{"smoke", "flashcrowd", "adaptive-smoke", "fig5", "table1"} {
		t.Run(builtin, func(t *testing.T) {
			dir := t.TempDir()
			full, resumed := filepath.Join(dir, "full.jsonl"), filepath.Join(dir, "resumed.jsonl")
			table := mustSweep(t, "-builtin", builtin, "-out", full, "-quiet")
			want, err := os.ReadFile(full)
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.SplitAfter(string(want), "\n")
			keep := 1 + (len(lines)-2)/2 // the header and half the points
			torn := strings.Join(lines[:keep], "") + `{"algorithm":"spr`
			if err := os.WriteFile(resumed, []byte(torn), 0o644); err != nil {
				t.Fatal(err)
			}
			if got := mustSweep(t, "-builtin", builtin, "-out", resumed, "-quiet"); got != table {
				t.Errorf("resumed run renders differently:\n%s\nvs\n%s", got, table)
			}
			got, err := os.ReadFile(resumed)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("resumed checkpoint differs from the uninterrupted run:\n--- full ---\n%s--- resumed ---\n%s", want, got)
			}
			if a, b := mustSweep(t, "-builtin", builtin, "-out", full, "-quiet", "-csv"),
				mustSweep(t, "-builtin", builtin, "-out", resumed, "-quiet", "-csv"); a != b {
				t.Errorf("aggregated CSV differs:\n%s\nvs\n%s", b, a)
			}
		})
	}
}

// TestRemoteMatchesLocalOutput: -remote renders a daemon's results with the
// same code as a local run, so tables and CSV are byte-identical; and
// -trace-out, local or remote, writes Chrome trace JSON without moving a
// byte of the output.
func TestRemoteMatchesLocalOutput(t *testing.T) {
	srv, err := service.New(service.Options{CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck
	})
	for _, format := range []string{"-detail", "-csv"} {
		local := mustSweep(t, "-builtin", "smoke", "-quiet", format)
		if remote := mustSweep(t, "-remote", ts.URL, "-builtin", "smoke", "-quiet", format); remote != local {
			t.Errorf("sweep -remote %s differs from local:\n%s\nvs\n%s", format, remote, local)
		}
	}
	want := mustSweep(t, "-builtin", "smoke", "-quiet")
	for _, where := range [][]string{nil, {"-remote", ts.URL}} {
		path := filepath.Join(t.TempDir(), "trace.json")
		code, stdout, stderr := sweep(t, append(where, "-builtin", "smoke", "-quiet", "-trace-out", path)...)
		if code != 0 || stdout != want || !strings.Contains(stderr, "trace written to "+path) {
			t.Errorf("sweep %v -trace-out: exit %d, stderr %q; output moved: %v", where, code, stderr, stdout != want)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var chrome struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal(b, &chrome); err != nil || len(chrome.TraceEvents) == 0 {
			t.Errorf("sweep %v -trace-out wrote no Chrome trace events (%v)", where, err)
		}
	}
}

// TestEmitSpecRoundTrip: the spec -emit-spec prints runs, through -spec,
// to the same output as the flags that produced it, and -counters-out
// records the run's work.
func TestEmitSpecRoundTrip(t *testing.T) {
	dir := t.TempDir()
	specPath, counters := filepath.Join(dir, "smoke.json"), filepath.Join(dir, "counters.json")
	if err := os.WriteFile(specPath, []byte(mustSweep(t, "-builtin", "smoke", "-emit-spec")), 0o644); err != nil {
		t.Fatal(err)
	}
	want := mustSweep(t, "-builtin", "smoke", "-quiet")
	if got := mustSweep(t, "-spec", specPath, "-quiet", "-counters-out", counters); got != want {
		t.Errorf("-spec of the emitted spec renders differently:\n%s\nvs\n%s", got, want)
	}
	b, err := os.ReadFile(counters)
	if err != nil {
		t.Fatal(err)
	}
	var ctr struct {
		PointsComputed int64 `json:"points_computed"`
	}
	if err := json.Unmarshal(b, &ctr); err != nil {
		t.Fatal(err)
	}
	if ctr.PointsComputed != 6 {
		t.Errorf("-counters-out records %d computed points, want the smoke study's 6:\n%s", ctr.PointsComputed, b)
	}
}

// TestExitStatus pins the documented exit statuses and one-line errors.
func TestExitStatus(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		code   int
		stderr string
	}{
		{[]string{"-list"}, 0, ""},
		{[]string{"-h"}, 0, "Usage of sweep"},
		{[]string{"-no-such-flag"}, 2, "flag provided but not defined"},
		{[]string{"-algs", "sprinklers", "-ns", "33", "-loads", "0.5", "-slots", "100"}, 1, "sweep: "},
		{[]string{"-algs", "bogus", "-loads", "0.5", "-slots", "100"}, 1, "sweep: "},
		{[]string{"-builtin", "smoke", "-kind", "sim"}, 1, "sweep: "},
		{[]string{"-builtin", "smoke", "-par", "-1"}, 1, "sweep: -par -1 < 0"},
		{[]string{"-builtin", "smoke", "-remote", "http://127.0.0.1:1", "-out", "x.jsonl"}, 1, "-out is a local-only flag"},
		// An expired -timeout cancels the run before its first point: the
		// cancel path's exit status, with resume instructions.
		{[]string{"-builtin", "smoke", "-quiet", "-timeout", "1ns", "-out", filepath.Join(t.TempDir(), "c.jsonl")}, 2, "-out"},
	} {
		code, stdout, stderr := sweep(t, tc.args...)
		if code != tc.code || !strings.Contains(stderr, tc.stderr) {
			t.Errorf("sweep %s: exit %d, stderr %q; want exit %d, stderr containing %q",
				strings.Join(tc.args, " "), code, stderr, tc.code, tc.stderr)
		}
		if code == 1 && strings.Count(stderr, "\n") != 1 {
			t.Errorf("sweep %s: want a one-line error, got %q", strings.Join(tc.args, " "), stderr)
		}
		if tc.args[0] == "-list" && !strings.Contains(stdout, "scenarios") {
			t.Errorf("sweep -list prints no scenarios section:\n%s", stdout)
		}
	}
}

var updateList = flag.Bool("update", false, "rewrite testdata/list.txt from sweep -list")

// TestListGolden pins `sweep -list` byte for byte: every registered
// architecture, workload and scenario with its option schema, as a binary
// that links only the real registrations prints it. Rerun with -update
// only for an intended change to a registration or to the catalog format.
func TestListGolden(t *testing.T) {
	got := mustSweep(t, "-list")
	path := filepath.Join("testdata", "list.txt")
	if *updateList {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("sweep -list drifted from %s:\n%s", path, got)
	}
}
