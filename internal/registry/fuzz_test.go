// The fuzz target lives in the external test package so it can link every
// built-in architecture, workload and scenario registration and fuzz the
// real schemas, not just the package's own test fixtures.
package registry_test

import (
	"encoding/json"
	"reflect"
	"testing"

	_ "sprinklers/internal/arch" // register every built-in architecture, workload and scenario
	"sprinklers/internal/registry"
)

// fuzzSchemas gathers every option schema in the registry — architectures,
// workloads and scenarios — keyed the way FuzzOptionsNormalize addresses
// them.
func fuzzSchemas() map[string]registry.Schema {
	out := map[string]registry.Schema{}
	for _, a := range registry.Architectures.All() {
		out["arch/"+a.Name] = a.Options
	}
	for _, w := range registry.Workloads.All() {
		out["workload/"+w.Name] = w.Options
	}
	for _, s := range registry.Scenarios.All() {
		out["scenario/"+s.Name] = s.Options
	}
	return out
}

// FuzzOptionsNormalize fuzzes option normalization against every
// registered schema. For any JSON object that normalizes, the result must
// be a fixed point (normalizing again changes nothing) and must survive a
// JSON round trip bit-for-bit — the two properties that make normalized
// options safe to embed in checkpoint headers and compare with DeepEqual.
func FuzzOptionsNormalize(f *testing.F) {
	for key, schema := range fuzzSchemas() {
		norm, err := schema.Normalize(nil)
		if err != nil {
			f.Fatalf("%s: defaults do not normalize: %v", key, err)
		}
		b, err := json.Marshal(norm)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(key, b)
	}
	f.Add("arch/pf", []byte(`{"threshold": 64}`))
	f.Add("workload/hotspot", []byte(`{"fraction": 0.75}`))
	f.Add("scenario/flashcrowd", []byte(`{"surge": 0.95, "at": 0.1}`))
	f.Add("workload/zipf", []byte(`{"exponent": 17}`)) // out of bounds: must be rejected, not coerced
	f.Fuzz(func(t *testing.T, key string, data []byte) {
		schema, ok := fuzzSchemas()[key]
		if !ok {
			return
		}
		var in map[string]any
		if err := json.Unmarshal(data, &in); err != nil {
			return
		}
		norm, err := schema.Normalize(in)
		if err != nil {
			return // rejected input; the correct outcome for bad options
		}
		again, err := schema.Normalize(norm)
		if err != nil {
			t.Fatalf("%s: normalized options failed to re-normalize: %v\nin: %s", key, err, data)
		}
		if !reflect.DeepEqual(norm, again) {
			t.Fatalf("%s: Normalize is not a fixed point:\nfirst  %#v\nsecond %#v", key, norm, again)
		}
		b, err := json.Marshal(norm)
		if err != nil {
			t.Fatalf("%s: normalized options do not marshal: %v", key, err)
		}
		var back map[string]any
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		reNorm, err := schema.Normalize(back)
		if err != nil {
			t.Fatalf("%s: JSON round trip broke normalization: %v", key, err)
		}
		if len(norm) == 0 {
			if len(reNorm) != 0 {
				t.Fatalf("%s: empty normalization grew keys: %#v", key, reNorm)
			}
			return
		}
		if !reflect.DeepEqual(map[string]any(norm), back) {
			t.Fatalf("%s: canonical form not JSON-stable:\nbefore %#v\nafter  %#v", key, norm, back)
		}
		if !reflect.DeepEqual(norm, reNorm) {
			t.Fatalf("%s: round-tripped options re-normalize differently", key)
		}
	})
}
