package bitflow_test

import (
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
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

// TestCommandUsageBlocks holds the usage block of each command's package
// comment to the flags its -h prints, both ways. bitflow-serve and
// bitflow-vet hold theirs to README in their own packages.
func TestCommandUsageBlocks(t *testing.T) {
	bin := t.TempDir()
	for _, cmd := range []string{"bitflow", "bitflow-bench", "bitflow-info", "bitflow-train"} {
		t.Run(cmd, func(t *testing.T) {
			exe := filepath.Join(bin, cmd)
			if out, err := exec.Command("go", "build", "-o", exe, "./cmd/"+cmd).CombinedOutput(); err != nil {
				t.Fatalf("go build: %v\n%s", err, out)
			}
			help, _ := exec.Command(exe, "-h").CombinedOutput()
			printed := flagNames(`(?m)^  -([a-z][a-z-]*)`, string(help))
			if len(printed) == 0 {
				t.Fatalf("no flags in -h output:\n%s", help)
			}
			src, err := os.ReadFile(filepath.Join("cmd", cmd, "main.go"))
			if err != nil {
				t.Fatal(err)
			}
			_, usage, ok := strings.Cut(string(src), "// Usage:\n")
			if !ok {
				t.Fatal("package comment has no Usage block")
			}
			usage, _, _ = strings.Cut(usage, "\npackage main")
			if documented := flagNames(`(?m)^//\t-([a-z][a-z-]*)`, usage); !slices.Equal(documented, printed) {
				t.Errorf("usage block names flags %v, -h prints %v", documented, printed)
			}
		})
	}
}

// flagNames returns the sorted, deduplicated first submatches of pattern
// in s.
func flagNames(pattern, s string) []string {
	var out []string
	for _, m := range regexp.MustCompile(pattern).FindAllStringSubmatch(s, -1) {
		out = append(out, m[1])
	}
	slices.Sort(out)
	return slices.Compact(out)
}
