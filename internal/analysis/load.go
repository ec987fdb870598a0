package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// The loader builds a Program without golang.org/x/tools: it shells out
// to `go list -export -deps -json`, which compiles (or reuses from the
// build cache) export data for every dependency, then parses the module
// packages from source and type-checks them with a gc importer whose
// lookup resolves import paths to those export files. This is the same
// strategy go/packages uses in export mode, expressed with the standard
// library only.

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
	Export     string
	Module     struct{ Path string }
	Error      *struct{ Err string }
}

// Load builds a Program for the given package patterns (e.g. "./...")
// resolved in dir (the module root, or any directory inside it). Only
// non-test Go files are loaded: every rule the suite enforces exempts
// _test.go files.
func Load(dir string, patterns ...string) (*Program, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	exports, mods, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	// Module packages are re-checked from source in dependency order
	// (`go list -deps` lists a package after its dependencies), and the
	// importer hands dependents OUR checked *types.Package rather than
	// the export-data copy. Without this, the same function would be two
	// distinct *types.Func objects on the two sides of an import, and
	// cross-package call-graph edges would silently resolve to nothing.
	imp := &moduleImporter{
		base:    exportImporter(fset, exports),
		checked: map[string]*types.Package{},
	}
	prog := &Program{Fset: fset, directives: map[string]map[int]*Directive{}}
	for _, lp := range mods {
		pkg, err := checkPackage(fset, imp, lp.ImportPath, lp.Dir, lp.GoFiles)
		if err != nil {
			return nil, fmt.Errorf("analysis: %s: %w", lp.ImportPath, err)
		}
		imp.checked[lp.ImportPath] = pkg.Types
		prog.Module = lp.Module.Path
		prog.Pkgs = append(prog.Pkgs, pkg)
		prog.scanDirectives(pkg)
	}
	return prog, nil
}

// moduleImporter resolves module packages to their source-checked form
// (preserving object identity across packages) and everything else to
// export data.
type moduleImporter struct {
	base    types.Importer
	checked map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p := m.checked[path]; p != nil {
		return p, nil
	}
	return m.base.Import(path)
}

// goList runs `go list -export -deps -json` and splits the result into
// an importpath→exportfile map (all packages) and the non-standard
// module packages to analyze from source.
func goList(dir string, patterns []string) (map[string]string, []listPkg, error) {
	args := append([]string{"list", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("analysis: go list: %v\n%s", err, stderr.String())
	}
	exports := map[string]string{}
	var mods []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if derr := dec.Decode(&p); derr == io.EOF {
			break
		} else if derr != nil {
			return nil, nil, fmt.Errorf("analysis: go list output: %v", derr)
		}
		if p.Error != nil {
			return nil, nil, fmt.Errorf("analysis: go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.Standard {
			mods = append(mods, p)
		}
	}
	return exports, mods, nil
}

// exportImporter returns a gc importer resolving import paths through
// the export files `go list -export` reported.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// checkPackage parses and type-checks one package from source.
func checkPackage(fset *token.FileSet, imp types.Importer, path, dir string, fileNames []string) (*Package, error) {
	var files []*ast.File
	for _, name := range fileNames {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, err
	}
	return &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}, nil
}
