package analysis

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// The fixture tests feed seeded violations through the real loader and
// analyzers. Each testdata/<name> directory is type-checked as a package
// with a fake import path whose suffix places it in the package role the
// analyzer governs ("fixture/internal/core", "fixture/internal/serve",
// ...). Expected findings are marked in the fixture source with
// "// want:<analyzer>" trailing comments; the harness requires the set of
// (file, line, analyzer) findings to match the markers exactly, so both
// false negatives (a seeded violation not flagged) and false positives (a
// fixed/annotated form flagged anyway) fail the test.

const moduleRoot = "../.."

var wantRe = regexp.MustCompile(`// want:([a-z,]+)`)

// wantMarkers scans the fixture directory for want comments and returns
// the expected findings as "file:line:analyzer" keys with counts.
func wantMarkers(t *testing.T, dir string) map[string]int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	want := map[string]int{}
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".go" {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("opening fixture: %v", err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			m := wantRe.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			for _, analyzer := range strings.Split(m[1], ",") {
				want[fmt.Sprintf("%s:%d:%s", e.Name(), line, analyzer)]++
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatalf("scanning fixture: %v", err)
		}
		f.Close()
	}
	return want
}

// checkFixture loads dir under pkgPath, runs the full suite, and
// compares findings against the want markers.
func checkFixture(t *testing.T, pkgPath, dir string) []Finding {
	t.Helper()
	prog, err := LoadFixture(moduleRoot, pkgPath, dir)
	if err != nil {
		t.Fatalf("LoadFixture(%s): %v", dir, err)
	}
	findings := Run(prog, All())

	got := map[string]int{}
	for _, f := range findings {
		got[fmt.Sprintf("%s:%d:%s", filepath.Base(f.File), f.Line, f.Analyzer)]++
	}
	want := wantMarkers(t, dir)

	keys := map[string]bool{}
	for k := range got {
		keys[k] = true
	}
	for k := range want {
		keys[k] = true
	}
	var sorted []string
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	for _, k := range sorted {
		if got[k] != want[k] {
			t.Errorf("%s: got %d findings, fixture wants %d", k, got[k], want[k])
		}
	}
	if t.Failed() {
		for _, f := range findings {
			t.Logf("finding: %s", f)
		}
	}
	return findings
}

func TestRawGoFixture(t *testing.T) {
	checkFixture(t, "fixture/internal/core", "testdata/rawgo")
}

func TestPanicPathFixture(t *testing.T) {
	findings := checkFixture(t, "fixture/internal/serve", "testdata/panicpath")
	// The bare //bitflow:panic-ok must be reported as a bad annotation,
	// not as a generic unguarded panic.
	found := false
	for _, f := range findings {
		if strings.Contains(f.Message, "needs a justification") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected a needs-a-justification finding for the bare //bitflow:panic-ok")
	}
}

// TestReachFixture checks the dead-code rule: functions reached only by
// reference, from init, a var initializer, an external interface or a
// keep marker are live; the rest are reported, a bare keep marker is
// reported as an unjustified annotation, and a misspelt one as a
// directive no analyzer honours.
func TestReachFixture(t *testing.T) {
	findings := checkFixture(t, "fixture/cmd/reach", "testdata/reach")
	bare := 0
	for _, f := range findings {
		if strings.Contains(f.Message, "keep needs a justification") {
			bare++
		}
	}
	if bare != 1 {
		t.Errorf("got %d keep needs-a-justification findings, want 1", bare)
	}
}

func TestKernelsPanicFixture(t *testing.T) {
	checkFixture(t, "fixture/internal/kernels", "testdata/kernelspanic")
}

// TestModuleIsClean runs the full suite over the real module: the tree
// must stay at zero findings (every exception annotated with a reason).
// It is the suite's only gate; every `go test ./...`, -short included,
// runs it.
func TestModuleIsClean(t *testing.T) {
	prog, err := Load(moduleRoot)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	findings := Run(prog, All())
	for _, f := range findings {
		t.Errorf("unexpected finding: %s", f)
	}
	if n := prog.NumFiles(); n == 0 {
		t.Fatalf("loaded 0 files")
	}
}

func TestPathSuffix(t *testing.T) {
	cases := []struct {
		path, suffix string
		want         bool
	}{
		{"bitflow/internal/core", "internal/core", true},
		{"fixture/internal/core", "internal/core", true},
		{"internal/core", "internal/core", true},
		{"bitflow/internal/coreutils", "internal/core", false},
		{"bitflow/xinternal/core", "internal/core", false},
	}
	for _, c := range cases {
		if got := pathSuffix(c.path, c.suffix); got != c.want {
			t.Errorf("pathSuffix(%q, %q) = %v, want %v", c.path, c.suffix, got, c.want)
		}
	}
}
