package sprinklers_test

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/types"
	"os/exec"
	"reflect"
	"sort"
	"strings"
	"testing"

	"sprinklers"
)

// TestEveryBinaryLinksEveryRegistration: a registration runs only in a
// binary that links its package, so a package that calls a registry
// table's Register and that some program does not import leaves that
// program's -list and specs short of what README promises ("valid in any
// spec and every tool's -list"). Every non-test package under internal/
// that calls a registry Register method must be among the dependencies
// (`go list -deps`) of the facade and of every command under cmd/.
func TestEveryBinaryLinksEveryRegistration(t *testing.T) {
	m := loadModule(t)
	registryPath := m.path + "/internal/registry"
	var registering []string
	for _, p := range m.pkgs {
		if !strings.HasPrefix(p.ImportPath, m.path+"/internal/") || p.ImportPath == registryPath {
			continue
		}
		calls := false
		for _, f := range m.files[p.ImportPath] {
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return !calls
				}
				fn, ok := m.info.Uses[sel.Sel].(*types.Func)
				if ok && fn.Pkg() != nil && fn.Pkg().Path() == registryPath && strings.HasPrefix(fn.Name(), "Register") {
					calls = true
				}
				return !calls
			})
		}
		if calls {
			registering = append(registering, p.ImportPath)
		}
	}
	if len(registering) == 0 {
		t.Fatal("found no package that calls a registry table's Register")
	}
	sort.Strings(registering)
	t.Logf("registering packages: %v", registering)

	targets := append([]string{"."}, goList(t, "./cmd/...")...)
	for _, target := range targets {
		deps := map[string]bool{}
		for _, d := range goList(t, "-deps", target) {
			deps[d] = true
		}
		for _, p := range registering {
			if !deps[p] {
				t.Errorf("%s does not link %s, so its registrations are missing there", target, p)
			}
		}
	}
}

// TestFacadeListsBuiltinScenarios: the facade reports the five builtin
// scenarios in canonical order.
func TestFacadeListsBuiltinScenarios(t *testing.T) {
	want := []string{"flashcrowd", "ratedrift", "hotspotshift", "linkfail", "loadstep"}
	if got := sprinklers.Scenarios(); !reflect.DeepEqual(got, want) {
		t.Errorf("sprinklers.Scenarios() = %v, want %v", got, want)
	}
}

// TestEveryProgramHasATest: a program tier-1 never runs can rot unseen and
// still count as a production caller for the export gate, so every
// package main under cmd/ and examples/ must have a _test.go file.
func TestEveryProgramHasATest(t *testing.T) {
	programs := goList(t, "-f",
		`{{if eq .Name "main"}}{{.ImportPath}}:{{if or .TestGoFiles .XTestGoFiles}}tested{{end}}{{end}}`,
		"./cmd/...", "./examples/...")
	if len(programs) == 0 {
		t.Fatal("found no package main under cmd/ or examples/")
	}
	for _, p := range programs {
		if path, tested, _ := strings.Cut(p, ":"); tested == "" {
			t.Errorf("%s has no _test.go file", path)
		}
	}
}

// goList runs `go list` with args and returns the import paths it prints.
func goList(t *testing.T, args ...string) []string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatal(fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes()))
	}
	return strings.Fields(string(out))
}
