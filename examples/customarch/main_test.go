package main

import (
	"bytes"
	"regexp"
	"testing"
)

// TestRunsRegisteredArchitecture runs the program's study at a 2 000-slot
// horizon (the program itself runs 20 000) and requires both toy-oq
// variants and Sprinklers in the legend, with one row per load.
func TestRunsRegisteredArchitecture(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, 2_000); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !regexp.MustCompile(`(?m)^load +oq-1 +oq-32 +sprinklers$`).MatchString(s) {
		t.Errorf("legend does not list oq-1, oq-32 and sprinklers:\n%s", s)
	}
	if rows := len(regexp.MustCompile(`(?m)^0\.[369]0 `).FindAllString(s, -1)); rows != 3 {
		t.Errorf("%d load rows, want 3:\n%s", rows, s)
	}
}
