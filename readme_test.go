package bitflow_test

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestReadmeProgramsTable holds README.md's "Runnable programs" table to
// the tree: every main package under cmd/ and examples/ has a
// `go run ./<dir>` row, and every row names a directory that exists.
func TestReadmeProgramsTable(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(readme), "Runnable programs:")
	if !ok {
		t.Fatal(`README.md has no "Runnable programs:" table`)
	}
	if end := strings.Index(table, "\n\n#"); end >= 0 {
		table = table[:end]
	}
	rows := map[string]bool{}
	for _, m := range regexp.MustCompile("(?m)^\\| `go run \\./([^` ]+)").FindAllStringSubmatch(table, -1) {
		rows[m[1]] = true
	}

	mains := map[string]bool{}
	for _, root := range []string{"cmd", "examples"} {
		dirs, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range dirs {
			if d.IsDir() && isMainPackage(t, filepath.Join(root, d.Name())) {
				mains[root+"/"+d.Name()] = true
			}
		}
	}
	for dir := range mains {
		if !rows[dir] {
			t.Errorf("main package %s has no `go run ./%s` row in README.md", dir, dir)
		}
	}
	for dir := range rows {
		if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
			t.Errorf("README.md row `go run ./%s` names no directory", dir)
		}
	}
}

// isMainPackage reports whether dir holds a non-test Go file declaring
// package main.
func isMainPackage(t *testing.T, dir string) bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		af, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.PackageClauseOnly)
		if err != nil {
			t.Fatal(err)
		}
		if af.Name.Name == "main" {
			return true
		}
	}
	return false
}
