package driver

import (
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"os"

	"repro/internal/analysis"
)

// vetConfig mirrors the JSON config cmd/go writes for each `go vet`
// package action (src/cmd/go/internal/work/exec.go). The protocol is
// unpublished but stable: golang.org/x/tools/go/analysis/unitchecker
// consumes the same file; this is a stdlib-only reimplementation.
//
//icpp98:allow wirejson mirrors cmd/go's PascalCase vet.cfg schema; the casing is not ours
type vetConfig struct {
	ID           string
	Compiler     string
	Dir          string
	ImportPath   string
	GoFiles      []string
	NonGoFiles   []string
	IgnoredFiles []string

	ModulePath    string
	ModuleVersion string
	ImportMap     map[string]string // source import path -> canonical path
	PackageFile   map[string]string // canonical path -> export data file
	Standard      map[string]bool
	PackageVetx   map[string]string // canonical path -> fact file from an earlier run
	VetxOnly      bool              // facts only; do not report diagnostics
	VetxOutput    string            // where to write this package's facts
	GoVersion     string

	SucceedOnTypecheckFailure bool
}

// RunUnitchecker executes one go vet package action: parse + type-check
// the package described by cfgPath, run the analyzers, write the fact
// file, print findings to stderr. The returned code is the process exit
// status go vet expects: 0 clean, 1 tool failure, 2 findings.
func RunUnitchecker(cfgPath string, analyzers []*analysis.Analyzer) int {
	code, err := unitcheck(cfgPath, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "icpp98lint:", err)
		return 1
	}
	return code
}

func unitcheck(cfgPath string, analyzers []*analysis.Analyzer) (int, error) {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		return 0, err
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return 0, fmt.Errorf("parsing %s: %w", cfgPath, err)
	}

	// The fact file must exist even on failed type-checks: cmd/go caches
	// it as the action's output and hands it to dependent vet runs.
	writeFacts := func(fs *analysis.FactSet) error {
		if cfg.VetxOutput == "" {
			return nil
		}
		f, err := os.Create(cfg.VetxOutput)
		if err != nil {
			return err
		}
		if err := fs.Encode(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}

	// go vet runs the tool over every package in the build graph,
	// standard library included. The suite's contract with the stdlib is
	// the curated classification tables (e.g. lockscope's blockingStdlib
	// denylist), not analysis of its internals: running the may-block
	// fixpoint over fmt or reflect would export facts like "fmt.Sprintf
	// may block" (it transitively reaches reflect's channel plumbing) and
	// poison every caller in the module. So non-module packages get an
	// empty fact file. (cfg.Standard only covers the package's imports, so
	// the discriminator is ModulePath: cmd/go leaves it empty for stdlib.)
	if cfg.ModulePath == "" {
		return 0, writeFacts(analysis.NewFactSet())
	}

	lookup := func(resolved string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[resolved]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", resolved)
		}
		return os.Open(file)
	}
	fset := token.NewFileSet()
	cp, err := typecheck(fset, cfg.ImportPath, cfg.GoVersion, cfg.GoFiles, gcImporter(fset, cfg.ImportMap, lookup), cfg.ImportMap)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			// cmd/go's "awful hack" (go.dev/issue/18395): a package that
			// does not compile must not fail vet a second time.
			return 0, writeFacts(analysis.NewFactSet())
		}
		return 0, fmt.Errorf("type-checking %s: %w", cfg.ImportPath, err)
	}

	vetxCache := map[string]*analysis.FactSet{}
	imported := func(resolved string) *analysis.FactSet {
		if fs, ok := vetxCache[resolved]; ok {
			return fs
		}
		var fs *analysis.FactSet
		if file, ok := cfg.PackageVetx[resolved]; ok {
			if f, err := os.Open(file); err == nil {
				fs, _ = analysis.DecodeFactsFile(f)
				f.Close()
			}
		}
		vetxCache[resolved] = fs
		return fs
	}

	facts := analysis.NewFactSet()
	diags, err := runAnalyzers(cp, analyzers, facts, imported)
	if err != nil {
		return 0, err
	}
	if err := writeFacts(facts); err != nil {
		return 0, err
	}
	if cfg.VetxOnly || len(diags) == 0 {
		return 0, nil
	}
	sortDiagnostics(diags)
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	return 2, nil
}
