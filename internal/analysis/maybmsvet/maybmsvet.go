// Package maybmsvet aggregates the project's analyzers — the rule set of
// cmd/maybms-vet. Keeping the list here lets the driver binary and the
// analyzers' integration tests share one definition.
package maybmsvet

import (
	"golang.org/x/tools/go/analysis"

	"maybms/internal/analysis/arenapool"
	"maybms/internal/analysis/detmap"
	"maybms/internal/analysis/guardloop"
	"maybms/internal/analysis/layering"
	"maybms/internal/analysis/walerr"
)

// Analyzers is the full maybms-vet suite, in diagnostic-name order. Each
// analyzer machine-checks one load-bearing convention of the engine; the
// catalog of what they protect (and which PR introduced each convention)
// is docs/static-analysis.md.
var Analyzers = []*analysis.Analyzer{
	arenapool.Analyzer,
	detmap.Analyzer,
	guardloop.Analyzer,
	layering.Analyzer,
	walerr.Analyzer,
}
