package experiment

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// recordedIn counts the complete point lines of a checkpoint (the header
// and a torn trailing line excluded); 0 if the file does not exist.
func recordedIn(t *testing.T, path string) int {
	t.Helper()
	b, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0
	}
	if err != nil {
		t.Fatal(err)
	}
	return max(0, bytes.Count(b, []byte{'\n'})-1)
}

// TestBuiltinStudiesResumeByteIdentical: every builtin with a checkpoint
// story (dense, scenario-bearing, adaptive, markov, bound) is stopped
// halfway through the production stop path, left with a torn trailing
// record, and resumed. The checkpoint must be byte-identical to an
// uninterrupted run's, and so must every rendering of the resumed results:
// the aggregated CSV and, for the scenario study, the trajectory CSV with
// one row per point and window.
func TestBuiltinStudiesResumeByteIdentical(t *testing.T) {
	for _, name := range []string{"smoke", "flashcrowd", "adaptive-smoke", "fig5", "table1"} {
		t.Run(name, func(t *testing.T) {
			spec, err := BuiltinSpec(name)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			fullPath, path := filepath.Join(dir, "full.jsonl"), filepath.Join(dir, "resumed.jsonl")
			full, err := RunStudy(context.Background(), spec, StudyConfig{ResultsPath: fullPath})
			if err != nil {
				t.Fatal(err)
			}
			if got := stopAt(t, spec, StudyConfig{ResultsPath: path, Parallelism: 1}, len(full)/2); len(got) >= len(full) {
				t.Fatalf("stopped run recorded %d of %d points, want a proper prefix", len(got), len(full))
			}
			appendTorn(t, path, `{"algorithm":"spr`)
			resumed, err := RunStudy(context.Background(), spec, StudyConfig{ResultsPath: path})
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(fullPath)
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("resumed checkpoint differs from the uninterrupted run:\n--- full ---\n%s--- resumed ---\n%s", want, got)
			}
			renders := []func(io.Writer, []PointResult) error{RenderStudyCSV}
			if spec.Windows > 0 {
				renders = append(renders, RenderTrajectoryCSV)
			}
			for i, render := range renders {
				var a, b bytes.Buffer
				if err := render(&a, full); err != nil {
					t.Fatal(err)
				}
				if err := render(&b, resumed); err != nil {
					t.Fatal(err)
				}
				if a.String() != b.String() {
					t.Errorf("rendering %d of the resumed results differs:\n%s\nvs\n%s", i, b.String(), a.String())
				}
				if i == 1 {
					if rows, want := strings.Count(b.String(), "\n"), len(full)*spec.Windows+1; rows != want {
						t.Errorf("trajectory CSV has %d lines, want %d points x %d windows + header = %d",
							rows, len(full), spec.Windows, want)
					}
				}
			}
		})
	}
}

// TestResumeByteIdenticalUnderRandomKills generalizes the resume property
// from one fixed stop to randomized kill schedules over a scenario-bearing
// study: however many times the study is killed, wherever the kills land,
// and whatever partial garbage a kill leaves on the trailing line, the
// finished checkpoint must be byte-identical to an uninterrupted run's.
func TestResumeByteIdenticalUnderRandomKills(t *testing.T) {
	spec := flashSpec() // scenario-bearing: window series ride on every line
	total := spec.WithDefaults().NumPoints()
	if total < 4 {
		t.Fatalf("property needs a few points, grid has %d", total)
	}
	dir := t.TempDir()

	fullPath := filepath.Join(dir, "full.jsonl")
	if _, err := RunStudy(context.Background(), spec, StudyConfig{ResultsPath: fullPath, Parallelism: 4}); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(fullPath)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(20260729))
	for trial := 0; trial < 5; trial++ {
		path := filepath.Join(dir, "resumed.jsonl")
		if err := os.RemoveAll(path); err != nil {
			t.Fatal(err)
		}
		// Kill the study at 1..3 random points before letting it finish.
		kills := 1 + rng.Intn(3)
		var schedule []int
		for k := 0; k < kills; k++ {
			halt := 1 + rng.Intn(total-1)
			schedule = append(schedule, halt)
			stopAt(t, spec, StudyConfig{ResultsPath: path, Parallelism: 1 + rng.Intn(4)}, recordedIn(t, path)+halt)
			// Half the time, simulate the kill landing mid-write: append a
			// partial record that the resume must truncate away.
			if rng.Intn(2) == 0 {
				appendTorn(t, path, `{"algorithm":"spr`[:1+rng.Intn(16)])
			}
		}
		if _, err := RunStudy(context.Background(), spec, StudyConfig{ResultsPath: path, Parallelism: 1 + rng.Intn(4)}); err != nil {
			t.Fatalf("trial %d schedule %v: final resume failed: %v", trial, schedule, err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d (kill schedule %v): resumed checkpoint differs from uninterrupted run\ngot  %d bytes\nwant %d bytes",
				trial, schedule, len(got), len(want))
		}
	}
}
