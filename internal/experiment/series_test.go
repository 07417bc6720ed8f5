package experiment

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestSeriesJSONBytes pins the wire form of the three series kinds
// (algorithms, traffic, scenarios): the bare-name form, the object form with
// "as" and options, the entry after WithDefaults normalization, the
// missing-name error and the rejection of unknown object fields. Every
// expected string was recorded from the code as it stood before the three
// series types shared one implementation; checkpoint headers and cache
// identities are built from these bytes, so none of them may move.
func TestSeriesJSONBytes(t *testing.T) {
	cases := []struct {
		field, key string
		bare       string // a bare-name entry, marshalled back unchanged
		object     string // the object form, keys deliberately out of order
		want       string // the object form as marshalled
		normalized string // the object form after WithDefaults
		bareNorm   string // the bare form after WithDefaults
		wrongKey   string // another kind's name key, rejected as unknown
	}{
		{
			field:      "algorithms",
			key:        "algorithm",
			bare:       `"pf"`,
			object:     `{"options":{"threshold":4},"as":"pf-4","algorithm":"pf"}`,
			want:       `{"algorithm":"pf","as":"pf-4","options":{"threshold":4}}`,
			normalized: `{"algorithm":"pf","as":"pf-4","options":{"threshold":4}}`,
			bareNorm:   `{"algorithm":"pf","options":{"threshold":0}}`,
			wrongKey:   "traffic",
		},
		{
			field:      "traffic",
			key:        "traffic",
			bare:       `"diagonal"`,
			object:     `{"as":"hot-75","options":{"fraction":0.75},"traffic":"hotspot"}`,
			want:       `{"traffic":"hotspot","as":"hot-75","options":{"fraction":0.75}}`,
			normalized: `{"traffic":"hotspot","as":"hot-75","options":{"fraction":0.75}}`,
			bareNorm:   `"diagonal"`,
			wrongKey:   "scenario",
		},
		{
			field:      "scenarios",
			key:        "scenario",
			bare:       `"linkfail"`,
			object:     `{"options":{"surge":0.95},"scenario":"flashcrowd","as":"crowd-95"}`,
			want:       `{"scenario":"flashcrowd","as":"crowd-95","options":{"surge":0.95}}`,
			normalized: `{"scenario":"flashcrowd","as":"crowd-95","options":{"at":0.25,"duration":0.25,"inputs":0.25,"surge":0.95}}`,
			bareNorm:   `{"scenario":"linkfail","options":{"at":0.3,"duration":0.3,"factor":0,"links":1}}`,
			wrongKey:   "algorithm",
		},
	}
	for _, c := range cases {
		parse := func(entry string) (Spec, error) {
			fields := map[string]string{"algorithms": `"sprinklers"`, "traffic": `"uniform"`}
			fields[c.field] = entry
			js := `{"loads":[0.5],"sizes":[8]`
			for _, f := range []string{"algorithms", "traffic", "scenarios"} {
				if e, ok := fields[f]; ok {
					js += `,"` + f + `":[` + e + `]`
				}
			}
			return ParseSpec(strings.NewReader(js + "}"))
		}
		entry := func(s Spec) string {
			b, err := json.Marshal(s)
			if err != nil {
				t.Fatalf("%s: marshal: %v", c.field, err)
			}
			var m map[string]json.RawMessage
			if err := json.Unmarshal(b, &m); err != nil {
				t.Fatal(err)
			}
			return string(m[c.field])
		}
		mustParse := func(e string) Spec {
			s, err := parse(e)
			if err != nil {
				t.Fatalf("%s: parse %s: %v", c.field, e, err)
			}
			return s
		}

		bare := mustParse(c.bare)
		if got := entry(bare); got != "["+c.bare+"]" {
			t.Errorf("%s: bare form marshals as %s, want [%s]", c.field, got, c.bare)
		}
		if got := entry(bare.WithDefaults()); got != "["+c.bareNorm+"]" {
			t.Errorf("%s: normalized bare entry marshals as %s, want [%s]", c.field, got, c.bareNorm)
		}
		obj := mustParse(c.object)
		if got := entry(obj); got != "["+c.want+"]" {
			t.Errorf("%s: object form marshals as %s, want [%s]", c.field, got, c.want)
		}
		if got := entry(obj.WithDefaults()); got != "["+c.normalized+"]" {
			t.Errorf("%s: normalized entry marshals as %s, want [%s]", c.field, got, c.normalized)
		}

		missing := `{"as":"x"}`
		wantErr := `experiment: bad spec: ` + c.key + ` entry {"as":"x"} missing its "` + c.key + `" name`
		if _, err := parse(missing); err == nil || err.Error() != wantErr {
			t.Errorf("%s: missing name: got error %v, want %q", c.field, err, wantErr)
		}
		for _, bad := range []struct{ entry, field string }{
			{`{"` + c.key + `":"x","bogus":1}`, "bogus"},
			{`{"` + c.wrongKey + `":"x"}`, c.wrongKey},
		} {
			wantErr := `experiment: bad spec: json: unknown field "` + bad.field + `"`
			if _, err := parse(bad.entry); err == nil || err.Error() != wantErr {
				t.Errorf("%s: entry %s: got error %v, want %q", c.field, bad.entry, err, wantErr)
			}
		}
	}
}
