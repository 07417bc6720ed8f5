package service

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateCatalog = flag.Bool("update", false, "rewrite testdata/catalog.{json,txt} from /api/v1/catalog")

// TestCatalogGolden pins both renderings of GET /api/v1/catalog byte for
// byte — the JSON document remote clients validate specs against, and the
// ?format=text form that matches every tool's -list — as a daemon that
// links only the real registrations serves them. Rerun with -update only
// for an intended change to a registration or to the catalog format.
func TestCatalogGolden(t *testing.T) {
	_, client := newTestServer(t)
	for _, c := range []struct{ path, golden string }{
		{"/api/v1/catalog", "catalog.json"},
		{"/api/v1/catalog?format=text", "catalog.txt"},
	} {
		got := httpGet(t, client, c.path)
		path := filepath.Join("testdata", c.golden)
		if *updateCatalog {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden file (run with -update): %v", err)
		}
		if got != string(want) {
			t.Errorf("GET %s drifted from %s:\n%s", c.path, path, got)
		}
	}
}
