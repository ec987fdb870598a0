package main

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

// base returns a flagValues matching the flag defaults, which must
// always validate.
func base() flagValues {
	return flagValues{
		replicas:       2,
		requestTimeout: 30 * time.Second,
	}
}

func TestValidateFlagsAcceptsDefaults(t *testing.T) {
	if err := validateFlags(base()); err != nil {
		t.Fatalf("default flags rejected: %v", err)
	}
}

func TestValidateFlagsRejections(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*flagValues)
		wantSub string
	}{
		{
			name:    "replicas below 1",
			mutate:  func(v *flagValues) { v.replicas = 0 },
			wantSub: "-replicas must be at least 1",
		},
		{
			name:    "non-positive request timeout",
			mutate:  func(v *flagValues) { v.requestTimeout = 0 },
			wantSub: "-request-timeout must be positive",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := base()
			tc.mutate(&v)
			err := validateFlags(v)
			if err == nil {
				t.Fatalf("invalid flag value accepted, want error containing %q", tc.wantSub)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not contain %q", err, tc.wantSub)
			}
		})
	}
}

func TestValidateFlagsAccepts(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*flagValues)
	}{
		{
			name:   "one replica",
			mutate: func(v *flagValues) { v.replicas = 1 },
		},
		{
			name:   "short request timeout",
			mutate: func(v *flagValues) { v.requestTimeout = time.Millisecond },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := base()
			tc.mutate(&v)
			if err := validateFlags(v); err != nil {
				t.Fatalf("valid flag values rejected: %v", err)
			}
		})
	}
}

// removedFlags are the request coalescer's and the autoscaler's flags.
// They are gone, and passing one must stop the command at the flag
// parser.
var removedFlags = []string{
	"batch", "batch-window", "max-batch",
	"autoscale-min-batch", "autoscale-max-batch",
	"autoscale-min-window", "autoscale-max-window",
	"autoscale", "autoscale-interval",
	"autoscale-min-replicas", "autoscale-max-replicas",
}

// TestRemovedFlagsExitTwo parses each removed flag with the command's
// real flag set in a child process of this test binary (the arguments
// after "--" reach the child as flag.Args()): the parser must reject it
// as undefined and exit with status 2, never accept it.
func TestRemovedFlagsExitTwo(t *testing.T) {
	if args := flag.Args(); len(args) > 0 {
		// Child: flag.CommandLine exits 2 on an undefined flag.
		_ = flag.CommandLine.Parse(args)
		os.Exit(0)
	}
	parse := func(args ...string) int {
		cmd := exec.Command(os.Args[0], append([]string{"-test.run=^TestRemovedFlagsExitTwo$", "--"}, args...)...)
		err := cmd.Run()
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			return ee.ExitCode()
		}
		if err != nil {
			t.Fatalf("running child for %q: %v", args, err)
		}
		return 0
	}
	if code := parse("-replicas", "3"); code != 0 {
		t.Fatalf("a defined flag exits %d in the child, want 0", code)
	}
	for _, f := range removedFlags {
		if code := parse("-" + f); code != 2 {
			t.Errorf("-%s exits %d, want 2 (flag provided but not defined)", f, code)
		}
	}
}

// TestREADMEFlagTableMatchesFlags pins README's "Tuning flags" table to
// the flags this command registers: every flag has a row and every row
// names a flag that exists.
func TestREADMEFlagTableMatchesFlags(t *testing.T) {
	raw, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(raw), "\n### Tuning flags\n")
	if !ok {
		t.Fatal(`README has no "### Tuning flags" section`)
	}
	table, _, _ = strings.Cut(table, "\n#")
	documented := map[string]bool{}
	for _, line := range strings.Split(table, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 || !strings.HasPrefix(strings.TrimSpace(cells[1]), "`-") {
			continue
		}
		for _, m := range regexp.MustCompile("`-([a-z-]+)`").FindAllStringSubmatch(cells[1], -1) {
			documented[m[1]] = true
		}
	}
	registered := map[string]bool{}
	flag.VisitAll(func(f *flag.Flag) {
		if !strings.HasPrefix(f.Name, "test.") {
			registered[f.Name] = true
		}
	})
	var missing, stale []string
	for name := range registered {
		if !documented[name] {
			missing = append(missing, name)
		}
	}
	for name := range documented {
		if !registered[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	if len(missing) > 0 {
		t.Errorf("flags without a README row: %v", missing)
	}
	if len(stale) > 0 {
		t.Errorf("README rows for flags that do not exist: %v", stale)
	}
	for _, f := range removedFlags {
		if registered[f] || documented[f] {
			t.Errorf("removed flag -%s is back (registered %v, documented %v)", f, registered[f], documented[f])
		}
	}
}
