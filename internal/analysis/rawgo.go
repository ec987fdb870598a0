package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// RawGo forbids raw goroutine fan-out outside the packages that own
// concurrency. All multi-core dispatch belongs to internal/exec (the
// persistent pool and claim-loop chunking); serve owns its request and
// server lifecycles. Everywhere else a `go` statement or a
// sync.WaitGroup bypasses the execution-context layer — the exact
// pattern the threads-int migration removed. `//bitflow:go-ok <reason>`
// excuses a deliberate exception (e.g. a closed-loop load generator
// whose clients must not be serialized by a claim loop).
var RawGo = &Analyzer{
	Name: "rawgo",
	Doc:  "raw go statements / sync.WaitGroup fan-out outside internal/exec, internal/serve",
	Run:  runRawGo,
}

// rawGoAllowed are the package roles (matched by import-path suffix)
// that legitimately own goroutines.
var rawGoAllowed = []string{"internal/exec", "internal/serve"}

func runRawGo(p *Program) []Finding {
	var out []Finding
	for _, pkg := range p.Pkgs {
		allowed := false
		for _, suffix := range rawGoAllowed {
			if pathSuffix(pkg.Path, suffix) {
				allowed = true
				break
			}
		}
		if allowed {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch node := n.(type) {
				case *ast.GoStmt:
					out = append(out, p.excusable("rawgo", node.Pos(), "go-ok",
						"raw go statement outside internal/exec|serve; route fan-out through *exec.Ctx")...)
				case *ast.Ident:
					if isWaitGroupRef(pkg.Info, node) {
						out = append(out, p.excusable("rawgo", node.Pos(), "go-ok",
							"sync.WaitGroup fan-out outside internal/exec|serve; use exec.Ctx.ParallelFor")...)
					}
				}
				return true
			})
		}
	}
	return out
}

// isWaitGroupRef reports whether the identifier names the sync.WaitGroup
// type (as in `var wg sync.WaitGroup` or a struct field declaration).
func isWaitGroupRef(info *types.Info, id *ast.Ident) bool {
	if id.Name != "WaitGroup" {
		return false
	}
	obj, ok := info.Uses[id]
	if !ok {
		return false
	}
	tn, ok := obj.(*types.TypeName)
	return ok && tn.Pkg() != nil && tn.Pkg().Path() == "sync"
}

// excusable emits the finding unless pos carries a //bitflow:<kind>
// directive with a justification; a directive with an empty reason
// yields a finding about the annotation itself.
func (p *Program) excusable(analyzer string, pos token.Pos, kind, msg string) []Finding {
	ok, bare := p.allowed(pos, kind)
	if ok {
		return nil
	}
	if bare != nil {
		return []Finding{p.finding(analyzer, pos,
			"//bitflow:%s needs a justification string", kind)}
	}
	return []Finding{p.finding(analyzer, pos, "%s", msg)}
}
