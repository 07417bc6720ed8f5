package registry

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// The structured catalog: a JSON-serializable view of everything the
// registry knows — architectures, workloads and scenarios with their
// metadata and full option schemas. The study-serving daemon exposes it at
// /api/v1/catalog so remote clients can discover what a server can run and
// validate option assignments before submitting; WriteCatalog renders the
// same document as the text behind every tool's -list flag.

// OptionInfo describes one declared option in the structured catalog.
type OptionInfo struct {
	Name    string `json:"name"`
	Type    Type   `json:"type"`
	Default any    `json:"default"`
	Help    string `json:"help,omitempty"`
	// Min and Max are present only for bounded numeric options; an
	// unbounded maximum (AtLeast) omits Max.
	Min  *float64 `json:"min,omitempty"`
	Max  *float64 `json:"max,omitempty"`
	Enum []string `json:"enum,omitempty"`
}

// describe renders the option for catalogs and error messages.
func (o OptionInfo) describe() string {
	def := o.Default
	if f, ok := def.(float64); ok && o.Type == typeInt {
		def = int(f)
	}
	s := fmt.Sprintf("%s (%s, default %v)", o.Name, o.Type, def)
	if o.Max != nil {
		s += fmt.Sprintf(" in [%v, %v]", *o.Min, *o.Max)
	} else if o.Min != nil {
		s += fmt.Sprintf(" >= %v", *o.Min)
	}
	if len(o.Enum) > 0 {
		s += fmt.Sprintf(" one of %s", strings.Join(o.Enum, "|"))
	}
	return s
}

// optionInfo converts a schema entry to its catalog form, with the int
// default rendered as a JSON-friendly integral float (its canonical form).
func optionInfo(o Option) OptionInfo {
	info := OptionInfo{Name: o.Name, Type: o.Type, Default: o.Default, Help: o.Help, Enum: o.Enum}
	if o.Bounded {
		min := o.Min
		info.Min = &min
		if o.Max != math.MaxFloat64 {
			max := o.Max
			info.Max = &max
		}
	}
	return info
}

// Info is the catalog entry of one registration of any kind. Only
// architectures set OrderPreserving and MaxStableLoad.
type Info struct {
	Name            string       `json:"name"`
	Description     string       `json:"description,omitempty"`
	OrderPreserving bool         `json:"order_preserving,omitempty"`
	MaxStableLoad   float64      `json:"max_stable_load,omitempty"`
	Options         []OptionInfo `json:"options,omitempty"`
}

// CatalogDoc is the full structured catalog, in canonical (rank, name)
// order throughout.
type CatalogDoc struct {
	Architectures []Info `json:"architectures"`
	Workloads     []Info `json:"workloads"`
	Scenarios     []Info `json:"scenarios,omitempty"`
}

// Catalog returns the structured catalog of every registration.
func Catalog() CatalogDoc {
	return CatalogDoc{Architectures: infos(Architectures), Workloads: infos(Workloads), Scenarios: infos(Scenarios)}
}

func infos[T entry](t *Table[T]) []Info {
	var out []Info
	for _, e := range t.All() {
		h := e.head()
		for _, o := range h.schema {
			h.info.Options = append(h.info.Options, optionInfo(o))
		}
		out = append(out, h.info)
	}
	return out
}

// WriteCatalog renders Catalog() as text, the form behind every tool's
// -list flag. Like the JSON, it omits an empty scenarios section.
func WriteCatalog(w io.Writer) {
	doc := Catalog()
	for i, sec := range []struct {
		title   string
		entries []Info
	}{{"architectures", doc.Architectures}, {"workloads", doc.Workloads}, {"scenarios", doc.Scenarios}} {
		if sec.title == "scenarios" && len(sec.entries) == 0 {
			break
		}
		if i > 0 {
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "%s:\n", sec.title)
		for _, e := range sec.entries {
			var tags []string
			if e.OrderPreserving {
				tags = append(tags, "order-preserving")
			}
			if e.MaxStableLoad > 0 {
				tags = append(tags, fmt.Sprintf("stable to load %.2g", e.MaxStableLoad))
			}
			suffix := ""
			if len(tags) > 0 {
				suffix = " [" + strings.Join(tags, ", ") + "]"
			}
			fmt.Fprintf(w, "  %-18s %s%s\n", e.Name, e.Description, suffix)
			for _, o := range e.Options {
				fmt.Fprintf(w, "      %-32s %s\n", o.describe(), o.Help)
			}
		}
	}
}
