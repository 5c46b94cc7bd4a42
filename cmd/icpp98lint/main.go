// Command icpp98lint statically enforces this repo's concurrency,
// hot-path, and wire invariants. It runs as a go vet tool:
//
//	go build -o icpp98lint ./cmd/icpp98lint
//	go vet -vettool=$PWD/icpp98lint ./...
//
// It speaks cmd/go's vet.cfg protocol (-V=full, -flags, then one JSON
// config per package), so findings participate in go vet's build cache:
// clean packages are not re-analyzed, and test files are covered through
// each package's test variant.
//
// Exit status: 0 clean, 1 tool failure, 2 findings. Suppress a finding
// with a same-line or preceding-line comment:
//
//	//icpp98:allow <analyzer> <reason>
//
// The reason is mandatory; see docs/STATIC_ANALYSIS.md.
package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"

	"repro/internal/analysis/driver"
	"repro/internal/analysis/suite"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	// cmd/go probes the tool before first use: -V=full must print a
	// stable tool ID (cache key), -flags the analyzer flags (none).
	if len(args) == 1 {
		switch {
		case args[0] == "-V=full" || args[0] == "--V=full":
			fmt.Printf("icpp98lint version %s\n", toolID())
			return 0
		case args[0] == "-flags" || args[0] == "--flags":
			fmt.Println("[]")
			return 0
		case strings.HasSuffix(args[0], ".cfg"):
			return driver.RunUnitchecker(args[0], suite.Analyzers())
		}
	}
	fmt.Fprintln(os.Stderr, "usage: go vet -vettool=$(command -v icpp98lint) [packages]")
	return 1
}

// toolID derives the tool's cache-busting version from its own binary:
// cmd/go keys vet results on this string, and a rebuilt linter must not
// reuse stale results. The word must not be "devel" (cmd/go treats that
// form specially and expects a buildID field).
func toolID() string {
	exe, err := os.Executable()
	if err == nil {
		if data, err := os.ReadFile(exe); err == nil {
			sum := sha256.Sum256(data)
			return fmt.Sprintf("v0-%x", sum[:12])
		}
	}
	return "v0-unknown"
}
