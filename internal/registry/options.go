package registry

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Type is the value type of a declared option.
type Type string

// The supported option value types. Numeric options are carried as JSON
// numbers; typeInt additionally requires the value to be integral.
const (
	typeInt    Type = "int"
	typeFloat  Type = "float"
	typeBool   Type = "bool"
	typeString Type = "string"
)

// Option declares one typed, defaulted parameter of an architecture or
// workload. Declare options with the Int/Float/Bool/String constructors and
// refine them with Between/OneOf; a hand-built Option must keep Default in
// canonical form (float64 for numerics, bool, string).
type Option struct {
	// Name is the option's key in a Spec's "options" object.
	Name string
	// Type is the declared value type.
	Type Type
	// Default is the value used when a spec omits the option, in canonical
	// form: float64 for int and float options, bool, or string.
	Default any
	// Help is a one-line description shown by the cmd tools' -list flag.
	Help string
	// Min and Max bound numeric options (inclusive) when Bounded is set.
	Min, Max float64
	// Bounded marks Min/Max as active.
	Bounded bool
	// Enum, when non-empty, restricts a string option to the listed values.
	Enum []string
}

// Int declares an integer option.
func Int(name string, def int, help string) Option {
	return Option{Name: name, Type: typeInt, Default: float64(def), Help: help}
}

// Float declares a float option.
func Float(name string, def float64, help string) Option {
	return Option{Name: name, Type: typeFloat, Default: def, Help: help}
}

// Bool declares a boolean option.
func Bool(name string, def bool, help string) Option {
	return Option{Name: name, Type: typeBool, Default: def, Help: help}
}

// String declares a string option.
func String(name, def, help string) Option {
	return Option{Name: name, Type: typeString, Default: def, Help: help}
}

// Between bounds a numeric option to [min, max] (inclusive).
func (o Option) Between(min, max float64) Option {
	o.Min, o.Max, o.Bounded = min, max, true
	return o
}

// AtLeast bounds a numeric option from below only.
func (o Option) AtLeast(min float64) Option {
	return o.Between(min, math.MaxFloat64)
}

// OneOf restricts a string option to the given values.
func (o Option) OneOf(vals ...string) Option {
	o.Enum = vals
	return o
}

// canonicalize converts v to the option's canonical representation,
// validating type, integrality, bounds and enums. JSON decoding hands every
// number over as float64; Go callers may also pass int or int64.
func (o Option) canonicalize(v any) (any, error) {
	switch o.Type {
	case typeInt, typeFloat:
		var f float64
		switch n := v.(type) {
		case float64:
			f = n
		case int:
			f = float64(n)
		case int64:
			f = float64(n)
		default:
			return nil, fmt.Errorf("option %q wants a %s, got %T", o.Name, o.Type, v)
		}
		// NaN slips past range comparisons (both are false) and infinities
		// are not representable in the canonical JSON form; neither is ever
		// a meaningful option value.
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, fmt.Errorf("option %q wants a finite number, got %v", o.Name, f)
		}
		if o.Type == typeInt {
			// Beyond ±2^53 float64 no longer represents integers exactly,
			// and int(f) overflow would turn a validated value into
			// garbage downstream — reject both at the gate.
			if f != math.Trunc(f) || math.Abs(f) > 1<<53 {
				return nil, fmt.Errorf("option %q wants an integer, got %v", o.Name, f)
			}
		}
		if o.Bounded && (f < o.Min || f > o.Max) {
			if o.Max == math.MaxFloat64 {
				return nil, fmt.Errorf("option %q = %v below minimum %v", o.Name, f, o.Min)
			}
			return nil, fmt.Errorf("option %q = %v outside [%v, %v]", o.Name, f, o.Min, o.Max)
		}
		return f, nil
	case typeBool:
		b, ok := v.(bool)
		if !ok {
			return nil, fmt.Errorf("option %q wants a bool, got %T", o.Name, v)
		}
		return b, nil
	case typeString:
		s, ok := v.(string)
		if !ok {
			return nil, fmt.Errorf("option %q wants a string, got %T", o.Name, v)
		}
		if len(o.Enum) > 0 {
			for _, e := range o.Enum {
				if s == e {
					return s, nil
				}
			}
			return nil, fmt.Errorf("option %q = %q, want one of %s", o.Name, s, strings.Join(o.Enum, "|"))
		}
		return s, nil
	default:
		return nil, fmt.Errorf("option %q has unknown type %q", o.Name, o.Type)
	}
}

// Schema is the ordered list of options an architecture or workload accepts.
type Schema []Option

// validate rejects malformed schemas at registration time.
func (s Schema) validate() error {
	seen := map[string]bool{}
	for _, o := range s {
		if o.Name == "" {
			return fmt.Errorf("option with empty name")
		}
		if seen[o.Name] {
			return fmt.Errorf("duplicate option %q", o.Name)
		}
		seen[o.Name] = true
		if _, err := o.canonicalize(o.Default); err != nil {
			return fmt.Errorf("default for %s: %v", optionInfo(o).describe(), err)
		}
	}
	return nil
}

// names lists the schema's option names, for error messages.
func (s Schema) names() []string {
	out := make([]string, len(s))
	for i, o := range s {
		out[i] = o.Name
	}
	return out
}

// Options is a normalized option assignment: every schema key present, every
// value in canonical form (float64 for numerics, bool, string). The
// canonical form is exactly what encoding/json produces, so a normalized
// Options survives a JSON round trip unchanged — the property that lets a
// checkpoint header be compared against a re-normalized spec byte-for-byte.
type Options map[string]any

// Normalize validates in against the schema and returns the full assignment
// with defaults applied. Unknown keys are rejected. An empty schema yields
// nil, so architectures without options round-trip as plain name strings.
func (s Schema) Normalize(in map[string]any) (Options, error) {
	if len(s) == 0 {
		if len(in) > 0 {
			return nil, fmt.Errorf("takes no options, got %s", strings.Join(slices.Sorted(maps.Keys(in)), ", "))
		}
		return nil, nil
	}
	out := make(Options, len(s))
	for _, o := range s {
		// Canonicalize the default too: a hand-built Option may carry a Go
		// int default, which would otherwise leak a non-JSON-stable value
		// into the normalized map and break checkpoint-header comparison.
		d, err := o.canonicalize(o.Default)
		if err != nil {
			return nil, fmt.Errorf("default for option %q: %v", o.Name, err)
		}
		out[o.Name] = d
	}
	for k, v := range in {
		i := slices.IndexFunc(s, func(o Option) bool { return o.Name == k })
		if i < 0 {
			return nil, fmt.Errorf("unknown option %q (valid: %s)", k, strings.Join(s.names(), ", "))
		}
		c, err := s[i].canonicalize(v)
		if err != nil {
			return nil, err
		}
		out[k] = c
	}
	return out, nil
}

// parseOptionValue parses a CLI option value of the series syntax: number,
// then bool, then string. The schema rejects type mismatches downstream, so
// inference only has to be consistent, not clever — and living here keeps
// every tool's flag behavior identical.
func parseOptionValue(s string) any {
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return f
	}
	if b, err := strconv.ParseBool(s); err == nil {
		return b
	}
	return s
}

// parseOptionPairs folds "key=value" assignments through parseOptionValue,
// returning nil for an empty list so optionless series keep their compact
// normalized form. It is the backend of the "name:key=value,..." series
// syntax parsed by ParseSeriesEntry.
func parseOptionPairs(pairs []string) (Options, error) {
	if len(pairs) == 0 {
		return nil, nil
	}
	out := Options{}
	for _, p := range pairs {
		p = strings.TrimSpace(p)
		k, v, ok := strings.Cut(p, "=")
		if !ok || k == "" {
			return nil, fmt.Errorf("want key=value, got %q", p)
		}
		out[k] = parseOptionValue(v)
	}
	return out, nil
}

// ParseSeriesEntry parses the shared CLI series syntax "name" or
// "name:key=value,key=value" into a registered name and an option
// assignment (nil when no options are given). sweep's series flags and
// stripestats' -traffic use it; in sweep, two optioned variants of one
// architecture form two distinct study series.
func ParseSeriesEntry(entry string) (name string, opts Options, err error) {
	head, rest, found := strings.Cut(entry, ":")
	name = strings.TrimSpace(head)
	if !found {
		return name, nil, nil
	}
	opts, err = parseOptionPairs(strings.Split(rest, ","))
	if err != nil {
		return "", nil, fmt.Errorf("series entry %q: %v", entry, err)
	}
	return name, opts, nil
}

// Int returns the named int option. It panics on a missing key or a
// non-numeric value: call sites only ever see schema-normalized Options, so
// either is a programming error, not user input.
func (o Options) Int(name string) int { return int(o.num(name)) }

// Float returns the named float option.
func (o Options) Float(name string) float64 { return o.num(name) }

func (o Options) num(name string) float64 {
	switch v := o[name].(type) {
	case float64:
		return v
	case int:
		return float64(v)
	case int64:
		return float64(v)
	default:
		panic(fmt.Sprintf("registry: option %q missing or not numeric (%T)", name, o[name]))
	}
}

// Bool returns the named bool option.
func (o Options) Bool(name string) bool {
	v, ok := o[name].(bool)
	if !ok {
		panic(fmt.Sprintf("registry: option %q missing or not a bool (%T)", name, o[name]))
	}
	return v
}

// String returns the named string option.
func (o Options) String(name string) string {
	v, ok := o[name].(string)
	if !ok {
		panic(fmt.Sprintf("registry: option %q missing or not a string (%T)", name, o[name]))
	}
	return v
}
