package analysis

import "go/types"

// Reach reports module functions no program runs, walking calls,
// interface dispatch and function references from main, init and var
// initializers, the root package's exported functions and the exported
// methods of the types it exports or aliases, methods satisfying an
// interface declared outside the module (error, fmt.Stringer, ...), and
// declarations or whole files marked //bitflow:keep <reason>. Test
// files are not loaded: code only a test runs moves there or is kept.
var Reach = &Analyzer{
	Name:  "reach",
	Doc:   "functions no main, init, root-package API, external interface or //bitflow:keep reaches",
	Hatch: "keep",
	Run:   runReach,
}

func runReach(p *Program) []Finding {
	var out []Finding
	keptFile := map[string]bool{}
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			ok, bare := p.allowed(f.Package, "keep")
			if bare != nil {
				out = append(out, p.finding("reach", f.Package, "//bitflow:keep needs a justification string"))
			}
			keptFile[p.Fset.Position(f.Package).Filename] = ok
		}
	}
	g, api, external := p.graph(), apiTypes(p), externalInterfaces(p)
	roots := []*funcNode{g.vars}
	for _, n := range g.nodes {
		if n.decl == nil {
			continue
		}
		kept, _ := p.allowed(n.decl.Pos(), "keep")
		if kept || keptFile[p.Fset.Position(n.decl.Pos()).Filename] || reachRoot(p, n, api, external) {
			roots = append(roots, n)
		}
	}
	reached := g.reach(roots, nil)
	for _, n := range g.nodes {
		if n.decl != nil && !reached[n] {
			out = append(out, p.excusable("reach", n.decl.Pos(), "keep",
				funcLabel(n)+" is reached from no main, init, root-package API or external interface; delete it or annotate //bitflow:keep <reason>")...)
		}
	}
	return out
}

// funcLabel names a declared function for finding messages.
func funcLabel(n *funcNode) string {
	if recv := n.recvTypeName(); recv != "" {
		return recv + "." + n.obj.Name()
	}
	return n.obj.Name()
}

// reachRoot reports whether a declared function is a root by its shape.
func reachRoot(p *Program, n *funcNode, api map[*types.TypeName]bool, external map[string][]*types.Interface) bool {
	recv := n.obj.Type().(*types.Signature).Recv()
	if recv == nil {
		name := n.obj.Name()
		return name == "init" || (name == "main" && n.pkg.Types.Name() == "main") ||
			(n.pkg.Path == p.Module && n.obj.Exported())
	}
	base := recv.Type()
	if ptr, ok := base.(*types.Pointer); ok {
		base = ptr.Elem()
	}
	if named, ok := base.(*types.Named); ok && api[named.Obj()] && n.obj.Exported() {
		return true
	}
	for _, it := range external[n.obj.Name()] {
		if types.Implements(base, it) || types.Implements(types.NewPointer(base), it) {
			return true
		}
	}
	return false
}

// apiTypes returns the named types the root package exports or aliases.
func apiTypes(p *Program) map[*types.TypeName]bool {
	out := map[*types.TypeName]bool{}
	for _, pkg := range p.Pkgs {
		for _, tn := range exportedTypes(pkg.Types) {
			if named, ok := types.Unalias(tn.Type()).(*types.Named); ok && pkg.Path == p.Module {
				out[named.Obj()] = true
			}
		}
	}
	return out
}

// externalInterfaces indexes error and the exported interfaces of every
// package the module imports, directly or not, by method name.
func externalInterfaces(p *Program) map[string][]*types.Interface {
	out := map[string][]*types.Interface{}
	add := func(it *types.Interface) {
		for i := 0; i < it.NumMethods(); i++ {
			out[it.Method(i).Name()] = append(out[it.Method(i).Name()], it)
		}
	}
	add(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	seen := map[*types.Package]bool{} // module packages are not external
	for _, pkg := range p.Pkgs {
		seen[pkg.Types] = true
	}
	var visit func(*types.Package)
	visit = func(tp *types.Package) {
		for _, imp := range tp.Imports() {
			if !seen[imp] {
				seen[imp] = true
				for _, tn := range exportedTypes(imp) {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok {
						add(it)
					}
				}
				visit(imp)
			}
		}
	}
	for _, pkg := range p.Pkgs {
		visit(pkg.Types)
	}
	return out
}

// exportedTypes lists the exported type names declared in tp's scope.
func exportedTypes(tp *types.Package) []*types.TypeName {
	var out []*types.TypeName
	for _, name := range tp.Scope().Names() {
		if tn, ok := tp.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
			out = append(out, tn)
		}
	}
	return out
}
