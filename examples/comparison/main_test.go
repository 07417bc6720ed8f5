package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// TestRendersFigure6 runs the example's study at a 2 000-slot horizon (the
// program itself runs 150 000) and requires its header, the five
// architectures in the legend and one row per load.
func TestRendersFigure6(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, 2_000); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.HasPrefix(s, "Figure 6 (reduced horizon)") {
		t.Errorf("missing header:\n%s", s)
	}
	if !regexp.MustCompile(`(?m)^load +load-balanced +ufs +foff +pf +sprinklers$`).MatchString(s) {
		t.Errorf("legend does not list the five architectures:\n%s", s)
	}
	if rows := len(regexp.MustCompile(`(?m)^0\.[13579]0 `).FindAllString(s, -1)); rows != 5 {
		t.Errorf("%d load rows, want 5:\n%s", rows, s)
	}
}
