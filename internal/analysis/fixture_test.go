package analysis

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

// fixtureDiagSource synthesizes diagnostics from //codegen: markers in
// fixture files, so fixture tests exercise the mapping, carve-outs, and
// escape hatches of the codegen analyzer without invoking the compiler:
//
//	//codegen:escape <subject>
//	//codegen:moved <name>
//	//codegen:bounds
//	//codegen:bounds-slice
//
// The synthesized diagnostic lands on the marker's line, mimicking a
// real compiler position inside the construct the marker trails.
func fixtureDiagSource(p *Program) ([]CompilerDiag, error) {
	var out []CompilerDiag
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			tokFile := p.Fset.File(f.Pos())
			if tokFile == nil {
				continue
			}
			abs, err := filepath.Abs(tokFile.Name())
			if err != nil {
				abs = tokFile.Name()
			}
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, "//codegen:")
					if !ok {
						continue
					}
					kind := rest
					subject := ""
					if i := strings.IndexAny(rest, " \t"); i >= 0 {
						kind, subject = rest[:i], strings.TrimSpace(rest[i+1:])
					}
					pos := p.Fset.Position(c.Pos())
					d := CompilerDiag{File: filepath.Clean(abs), Line: pos.Line, Col: pos.Column, Subject: subject}
					switch kind {
					case "escape":
						d.Kind = DiagEscape
					case "moved":
						d.Kind = DiagMoved
					case "bounds":
						d.Kind = DiagBounds
					case "bounds-slice":
						d.Kind = DiagSliceBounds
					default:
						return nil, fmt.Errorf("analysis: unknown //codegen: marker %q at %s:%d", kind, abs, pos.Line)
					}
					out = append(out, d)
				}
			}
		}
	}
	return out, nil
}

// LoadFixture type-checks one directory of fixture files as a package
// with the given (fake) import path, resolving its imports against the
// real module's export data rooted at moduleDir. Tests use it to feed
// seeded violations through the analyzers under package paths like
// "fixture/internal/core" without the fixtures ever being part of the
// module build.
func LoadFixture(moduleDir, pkgPath, fixtureDir string) (*Program, error) {
	exports, _, err := goList(moduleDir, []string{"./..."})
	if err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(fixtureDir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".go" {
			files = append(files, e.Name())
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no fixture files in %s", fixtureDir)
	}
	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	pkg, err := checkPackage(fset, imp, pkgPath, fixtureDir, files)
	if err != nil {
		return nil, fmt.Errorf("analysis: fixture %s: %w", pkgPath, err)
	}
	prog := &Program{Fset: fset, Pkgs: []*Package{pkg}, directives: map[string]map[int]*Directive{}}
	// Fixtures never shell out to the compiler: codegen diagnostics are
	// synthesized from //codegen: markers in the fixture source.
	prog.diagSource = fixtureDiagSource
	prog.scanDirectives(pkg)
	return prog, nil
}
