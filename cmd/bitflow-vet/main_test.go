package main

import (
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// writeModule lays out a throwaway module for the driver to analyze.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// capture runs fn with *stream (os.Stdout or os.Stderr) redirected and
// returns what it printed there.
func capture(t *testing.T, stream **os.File, fn func()) string {
	t.Helper()
	old := *stream
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	*stream = w
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	defer func() {
		*stream = old
	}()
	fn()
	w.Close()
	*stream = old
	return <-done
}

const goMod = "module tmpvet\n\ngo 1.24\n"

// dirtyCore has a raw goroutine in a package whose import-path suffix
// puts it under the rawgo rule. The module has no main, so the keep
// marker is what keeps fanOut live for reach.
const dirtyCore = `package core

//bitflow:keep called by the test harness
func fanOut(done chan struct{}) {
	go func() { done <- struct{}{} }()
}
`

const cleanCore = `package core

//bitflow:keep called by the test harness
func fanOut(done chan struct{}) {
	done <- struct{}{}
}
`

// removedFlags were used only by the CI report and baseline steps the
// zero-findings test replaced, or by an analyzer since deleted;
// each must now be a usage error.
var removedFlags = []string{"json", "findings-only", "exit-zero", "disable", "lock-order"}

// TestExitCodes pins the driver's exit-code contract: findings mean a
// non-zero exit, and usage or load errors are distinct from findings.
func TestExitCodes(t *testing.T) {
	dirty := writeModule(t, map[string]string{
		"go.mod":                goMod,
		"internal/core/core.go": dirtyCore,
	})
	clean := writeModule(t, map[string]string{
		"go.mod":                goMod,
		"internal/core/core.go": cleanCore,
	})

	type exitCase struct {
		name string
		args []string
		want int
	}
	cases := []exitCase{
		{"findings exit 1", []string{"-dir", dirty}, 1},
		{"clean tree exits 0", []string{"-dir", clean}, 0},
		{"unknown analyzer is a usage error", []string{"-enable", "nosuch", "-dir", clean}, 2},
		{"unknown flag is a usage error", []string{"-frobnicate"}, 2},
		{"bad dir is a load error", []string{"-dir", filepath.Join(clean, "nope")}, 2},
		{"list exits 0", []string{"-list"}, 0},
	}
	for _, f := range removedFlags {
		cases = append(cases, exitCase{"removed flag -" + f, []string{"-dir", dirty, "-" + f}, 2})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var got int
			capture(t, &os.Stdout, func() { got = run(c.args) })
			if got != c.want {
				t.Errorf("run(%v) = %d, want %d", c.args, got, c.want)
			}
		})
	}
}

func TestTextSummaryLine(t *testing.T) {
	dirty := writeModule(t, map[string]string{
		"go.mod":                goMod,
		"internal/core/core.go": dirtyCore,
	})
	var code int
	out := capture(t, &os.Stdout, func() { code = run([]string{"-dir", dirty}) })
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	if !strings.Contains(out, "[rawgo]") {
		t.Errorf("output missing the rawgo finding:\n%s", out)
	}
	if !strings.Contains(out, "bitflow-vet: 1 findings, 1 files checked") {
		t.Errorf("output missing the summary line:\n%s", out)
	}
}

// TestAnalyzerSelection exercises -enable against the dirty module: a
// selection without rawgo must hide the finding (exit 0).
func TestAnalyzerSelection(t *testing.T) {
	dirty := writeModule(t, map[string]string{
		"go.mod":                goMod,
		"internal/core/core.go": dirtyCore,
	})
	var code int
	capture(t, &os.Stdout, func() { code = run([]string{"-dir", dirty, "-enable", "panicpath,reach"}) })
	if code != 0 {
		t.Errorf("with rawgo not enabled, exit = %d, want 0", code)
	}
	capture(t, &os.Stdout, func() { code = run([]string{"-dir", dirty, "-enable", "rawgo"}) })
	if code != 1 {
		t.Errorf("with only rawgo enabled, exit = %d, want 1", code)
	}
}

// TestFlagDocsMatchFlags holds the two places that list this command's
// flags — README's "Static analysis" command block and the usage block
// of this package's doc comment — to the flags run registers, both ways.
func TestFlagDocsMatchFlags(t *testing.T) {
	var code int
	help := capture(t, &os.Stderr, func() { code = run([]string{"-h"}) })
	if code != 2 {
		t.Fatalf("-h exits %d, want 2", code)
	}
	registered := names(regexp.MustCompile(`(?m)^  -([a-z-]+)`), help)
	if len(registered) == 0 {
		t.Fatalf("no flags in -h output:\n%s", help)
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "\n### Static analysis\n")
	if !ok {
		t.Fatal(`README has no "### Static analysis" section`)
	}
	_, block, _ := strings.Cut(section, "\n```\n")
	block, _, _ = strings.Cut(block, "\n```\n")

	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	_, usage, _ := strings.Cut(string(src), "// Usage:\n")
	usage, _, _ = strings.Cut(usage, "\npackage main")

	for doc, documented := range map[string][]string{
		"README command block": names(regexp.MustCompile(`(?:^|\s)-([a-z][a-z-]*)`), block),
		"main.go usage block":  names(regexp.MustCompile(`(?m)^//\t-([a-z][a-z-]*)`), usage),
	} {
		if strings.Join(documented, " ") != strings.Join(registered, " ") {
			t.Errorf("%s names flags %v, run registers %v", doc, documented, registered)
		}
	}
}

// names returns the sorted, deduplicated first submatches of re in s.
func names(re *regexp.Regexp, s string) []string {
	seen := map[string]bool{}
	var out []string
	for _, m := range re.FindAllStringSubmatch(s, -1) {
		if !seen[m[1]] {
			seen[m[1]] = true
			out = append(out, m[1])
		}
	}
	sort.Strings(out)
	return out
}
