package sprinklers_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"go/format"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

// TestGofmt fails on any Go file in the module that gofmt would change.
func TestGofmt(t *testing.T) {
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".go" {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if out, err := format.Source(src); err != nil {
			t.Errorf("%s: %v", path, err)
		} else if !bytes.Equal(out, src) {
			t.Errorf("%s is not gofmt-formatted", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

var benchmarkReport = flag.String("benchmark-report", "",
	"run TestBenchmarkCorrectAndGolden, writing the benchmark's JSON report to this file")

// TestBenchmarkCorrectAndGolden runs ./benchmark once per workload at the
// golden seed and scale with no timing budget. Every workload must report
// a correct result and match benchmark/golden.json, so a moved simulated
// byte fails by workload name. It takes about 12 s on two cores, so it
// runs only when -benchmark-report names the file for the report.
func TestBenchmarkCorrectAndGolden(t *testing.T) {
	if *benchmarkReport == "" {
		t.Skip("set -benchmark-report to run the benchmark's golden check")
	}
	out, err := exec.Command("go", "run", "./benchmark", "--seconds", "0", "--trace", "0", "--out", *benchmarkReport).CombinedOutput()
	if err != nil {
		t.Fatalf("benchmark: %v\n%s", err, out)
	}
	t.Logf("%s", out)
	b, err := os.ReadFile(*benchmarkReport)
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Runs []struct {
			Workload string `json:"workload"`
			Correct  bool   `json:"correct"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(b, &report); err != nil {
		t.Fatal(err)
	}
	for _, r := range report.Runs {
		if !r.Correct {
			t.Errorf("workload %s is not correct", r.Workload)
		}
	}
	golden := regexp.MustCompile(`(?m)^golden +match`).FindAll(out, -1)
	if len(report.Runs) != 6 || len(golden) != 6 {
		t.Errorf("%d workload runs and %d golden matches, want 6 and 6:\n%s", len(report.Runs), len(golden), out)
	}
}
