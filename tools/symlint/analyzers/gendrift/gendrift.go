// Package gendrift defines an analyzer that detects drift between the
// checked-in generated sources and their generators.
//
// SymProp's hot-path generated files — internal/dense/iterate_gen.go
// (~unrolled IOU loop nests) and internal/kernels/fused_gen.go (fused
// per-(order,rank) S³TTMc kernels) — are emitted by tools/geniterate and
// tools/genkernels (see docs/CODEGEN.md). A hand edit to the generated file, or a generator
// change without regeneration, silently forks the two; the analyzer
// re-runs the generator to a buffer, gofmt-formats it exactly as
// `make generate` does, and fails with the first differing line when the
// on-disk file does not match byte-for-byte.
package gendrift

import (
	"bytes"
	"fmt"
	"go/format"
	"os"
	"os/exec"
	"path/filepath"

	"github.com/symprop/symprop/tools/symlint/analysis"
	"github.com/symprop/symprop/tools/symlint/analyzers/lintutil"
)

// A Target pairs one generated file with its generator package.
type Target struct {
	PkgSuffix string // package the generated file belongs to
	GenFile   string // module-relative path of the generated file
	Generator string // generator package, run as `go run <Generator>` at the module root
}

// Targets lists the generated files under drift protection.
var Targets = []Target{
	{PkgSuffix: "internal/dense", GenFile: "internal/dense/iterate_gen.go", Generator: "./tools/geniterate"},
	{PkgSuffix: "internal/kernels", GenFile: "internal/kernels/fused_gen.go", Generator: "./tools/genkernels"},
}

var Analyzer = &analysis.Analyzer{
	Name: "gendrift",
	Doc: "verifies generated files match a fresh run of their generators\n\n" +
		"Regenerates tools/geniterate and tools/genkernels output in memory and diffs it against the checked-in *_gen.go files.",
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	if pass.Module == nil || pass.Module.Dir == "" {
		return nil, nil
	}
	for _, t := range Targets {
		if !lintutil.PathMatches(pass.Pkg.Path(), []string{t.PkgSuffix}) {
			continue
		}
		equal, diffLine, err := Check(pass.Module.Dir, t.GenFile, t.Generator)
		if err != nil {
			return nil, fmt.Errorf("gendrift %s: %w", t.GenFile, err)
		}
		if !equal {
			// Anchor the diagnostic at the generated file itself when it
			// is part of this pass, else at the package's first file.
			pos := pass.Files[0].Package
			for _, f := range pass.Files {
				name := pass.Fset.Position(f.Package).Filename
				if filepath.Base(name) == filepath.Base(t.GenFile) {
					pos = f.Package
					break
				}
			}
			pass.Reportf(pos,
				"%s is out of sync with `go run %s` (first difference at line %d); run `make generate`",
				t.GenFile, t.Generator, diffLine)
		}
	}
	return nil, nil
}

// Check regenerates the target in memory and compares it with the on-disk
// file (resolved relative to moduleDir unless absolute). It returns
// equal=false with the 1-based line of the first difference when the two
// diverge. Exported for the analyzer's tests and for use as a library
// check.
func Check(moduleDir, genFile, generator string) (equal bool, diffLine int, err error) {
	cmd := exec.Command("go", "run", generator)
	cmd.Dir = moduleDir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	fresh, err := cmd.Output()
	if err != nil {
		return false, 0, fmt.Errorf("go run %s: %v\n%s", generator, err, stderr.String())
	}
	// `make generate` pipes the generator through gofmt; format.Source
	// applies the identical canonical formatting.
	formatted, err := format.Source(fresh)
	if err != nil {
		return false, 0, fmt.Errorf("formatting %s output: %v", generator, err)
	}
	genPath := genFile
	if !filepath.IsAbs(genPath) {
		genPath = filepath.Join(moduleDir, genPath)
	}
	onDisk, err := os.ReadFile(genPath)
	if err != nil {
		return false, 0, err
	}
	if bytes.Equal(formatted, onDisk) {
		return true, 0, nil
	}
	return false, FirstDiffLine(formatted, onDisk), nil
}

// FirstDiffLine returns the 1-based line number of the first line where a
// and b differ (counting a missing trailing region as a difference at the
// shorter input's next line).
func FirstDiffLine(a, b []byte) int {
	al := bytes.Split(a, []byte("\n"))
	bl := bytes.Split(b, []byte("\n"))
	n := min(len(al), len(bl))
	for i := 0; i < n; i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return i + 1
		}
	}
	return n + 1
}
