package analysis

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
)

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
	prog.scanDirectives(pkg)
	return prog, nil
}
