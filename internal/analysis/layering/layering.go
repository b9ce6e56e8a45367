// Package layering checks the serving boundary: the packages that answer a
// request — internal/{engine,shard,storage,sql,server,server/client} and
// cmd/maybmsd — may import, of this module, only each other's serving
// layers. The paper-reproduction packages (core, worlds, chase, confidence,
// uwsdt, normalize, factor, orset, tupleind), the WSD bridge and the
// benchmark drivers are oracles and tooling: tests compare the engine
// against them, so they must stay linkable from _test.go files and
// unlinkable from the server binary.
//
// The rule is an allowlist, so a new package is out until it is argued in:
// in a non-test file of a serving package, every import of a package of
// this module other than internal/{relation,engine,shard,storage,
// sqlrewrite,sql,server,census} is reported, naming the edge. There is no
// escape directive — an oracle a serving package "needs" is a design
// question, not an exception.
package layering

import (
	"strconv"
	"strings"

	"golang.org/x/tools/go/analysis"

	"maybms/internal/analysis/internal/common"
)

const doc = `check that serving packages import no oracle or tooling package

Non-test files of internal/{engine,shard,storage,sql,server,server/client}
and cmd/maybmsd may import, of this module, only internal/{relation,engine,
shard,storage,sqlrewrite,sql,server,census}.`

// serving lists the checked packages as path suffixes below the module
// root (suffix matching keeps the analyzer working on its testdata tree).
var serving = []string{
	"internal/engine", "internal/shard", "internal/storage", "internal/sql",
	"internal/server", "internal/server/client", "cmd/maybmsd",
}

// allowed lists the module packages a serving package may import.
var allowed = []string{
	"internal/relation", "internal/engine", "internal/shard", "internal/storage",
	"internal/sqlrewrite", "internal/sql", "internal/server", "internal/census",
}

// Analyzer is the layering pass.
var Analyzer = &analysis.Analyzer{
	Name: "layering",
	Doc:  doc,
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	path := pass.Pkg.Path()
	module, ok := moduleOf(path)
	if !ok {
		return nil, nil
	}
	for _, f := range pass.Files {
		if common.IsTestFile(pass, f.Package) {
			continue
		}
		for _, imp := range f.Imports {
			ip, err := strconv.Unquote(imp.Path.Value)
			if err != nil || ip != module && !strings.HasPrefix(ip, module+"/") {
				continue // standard library or another module
			}
			if !isAllowed(module, ip) {
				pass.Reportf(imp.Pos(), "serving package %s imports %s: only %s of this module may be linked into the server (oracles and tooling stay behind _test.go files)",
					path, ip, strings.Join(allowed, ", "))
			}
		}
	}
	return nil, nil
}

func isAllowed(module, ip string) bool {
	for _, a := range allowed {
		if ip == module+"/"+a {
			return true
		}
	}
	return false
}

// moduleOf returns the module root of a serving package's import path, or
// false when the package is not a serving package.
func moduleOf(path string) (string, bool) {
	for _, s := range serving {
		if module, ok := strings.CutSuffix(path, "/"+s); ok {
			return module, true
		}
	}
	return "", false
}
