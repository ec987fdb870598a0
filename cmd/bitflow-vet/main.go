// Command bitflow-vet runs the repo-native static-analysis suite
// (internal/analysis) over the module and prints its findings. The
// zero-findings gate is internal/analysis's TestModuleIsClean, which
// every `go test ./...` runs; this command is how to read the findings.
//
// Usage:
//
//	bitflow-vet [flags] [packages]
//
//	-dir string        module directory to analyze (default ".")
//	-enable string     comma-separated analyzers to run (default: all)
//	-list              print the available analyzers and exit
//
// Exit codes: 0 no findings, 1 findings, 2 usage or load error.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"bitflow/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bitflow-vet", flag.ContinueOnError)
	var (
		dir    = fs.String("dir", ".", "module directory to analyze")
		enable = fs.String("enable", "", "comma-separated analyzers to run (default: all)")
		list   = fs.Bool("list", false, "print the available analyzers and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	analyzers, err := selectAnalyzers(*enable)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bitflow-vet:", err)
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	prog, err := analysis.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bitflow-vet:", err)
		return 2
	}
	findings := analysis.Run(prog, analyzers)
	for _, f := range findings {
		fmt.Println(f)
	}
	fmt.Printf("bitflow-vet: %d findings, %d files checked\n", len(findings), prog.NumFiles())
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// selectAnalyzers resolves -enable against the full suite.
func selectAnalyzers(enable string) ([]*analysis.Analyzer, error) {
	if enable == "" {
		return analysis.All(), nil
	}
	byName := map[string]*analysis.Analyzer{}
	for _, a := range analysis.All() {
		byName[a.Name] = a
	}
	var selected []*analysis.Analyzer
	for _, n := range strings.Split(enable, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		a := byName[n]
		if a == nil {
			return nil, fmt.Errorf("unknown analyzer %q (use -list)", n)
		}
		selected = append(selected, a)
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("no analyzers selected")
	}
	return selected, nil
}
