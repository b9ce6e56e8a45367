// Command maybms-vet machine-checks the engine's load-bearing conventions:
// arena release on every path (arenapool), cancellation checkpoints in row
// sweeps (guardloop), no map-order dependence in byte-identity-critical
// code (detmap), fs-op error discipline in the durability layer (walerr),
// and no oracle or tooling import in the packages that serve requests
// (layering). See docs/static-analysis.md for the invariant catalog.
//
// Usage:
//
//	go run ./cmd/maybms-vet ./...          # analyze packages (exit 0 = clean)
//	go vet -vettool=$(which maybms-vet) ./...
//
// The binary is a standard go/analysis unitchecker: invoked by the go
// command (via -vettool) it analyzes one compilation unit per .cfg file.
// Invoked with package patterns it re-executes itself through `go vet
// -vettool` so the go command handles loading, caching and dependency
// order — the same offline, vendored toolchain path CI uses.
package main

import (
	"fmt"
	"os"
	"os/exec"
	"strings"

	"golang.org/x/tools/go/analysis/unitchecker"

	"maybms/internal/analysis/maybmsvet"
)

func main() {
	args := os.Args[1:]
	for _, a := range args {
		if strings.HasPrefix(a, "-V") || a == "-flags" || strings.HasSuffix(a, ".cfg") {
			// Invoked by `go vet -vettool`: run as a unitchecker.
			unitchecker.Main(maybmsvet.Analyzers...) // does not return
		}
	}

	// Driver mode: hand the patterns to `go vet -vettool=<self>`.
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "maybms-vet: locating own binary: %v\n", err)
		os.Exit(1)
	}
	if len(args) == 0 {
		args = []string{"./..."}
	}
	cmd := exec.Command("go", append([]string{"vet", "-vettool=" + exe}, args...)...)
	cmd.Stdout = os.Stdout
	cmd.Stderr = os.Stderr
	cmd.Stdin = os.Stdin
	if err := cmd.Run(); err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			os.Exit(ee.ExitCode())
		}
		fmt.Fprintf(os.Stderr, "maybms-vet: running go vet: %v\n", err)
		os.Exit(1)
	}
}
