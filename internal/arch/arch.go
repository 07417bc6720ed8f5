// Package arch links every built-in switch architecture, traffic workload
// and dynamic scenario into the importing binary: each blank import runs
// the package's init-time registry registrations (internal/traffic
// registers the workloads and the scenarios). Import it (for side effects)
// from any program that resolves architectures, workloads or scenarios by
// name; packages that already import a concrete architecture directly do
// not need it.
package arch

import (
	_ "sprinklers/internal/baseline"
	_ "sprinklers/internal/cms"
	_ "sprinklers/internal/core"
	_ "sprinklers/internal/foff"
	_ "sprinklers/internal/hashing"
	_ "sprinklers/internal/pf"
	_ "sprinklers/internal/traffic"
	_ "sprinklers/internal/ufs"
)
