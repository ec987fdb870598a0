package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// The call graph is a static, conservative approximation shared by
// panicpath and reach:
//
//   - direct calls (package functions, methods on concrete types) become
//     edges to the callee's node;
//   - calls through an interface method become edges to every concrete
//     method in the module that implements that interface;
//   - a function referenced without being called (passed by name, a
//     method value, stored in a field) gets an edge from the function
//     the reference appears in, just as a function literal does:
//     wherever the value ends up being invoked, that is the path the
//     panic travels;
//   - an edge created by passing a function to resilience.Safe is marked
//     guarded — panics below it are captured, not fatal;
//   - references in package-level var initializers are edges from one
//     synthetic node, vars, which reach uses as a root.

// funcNode is one function, method, or function literal.
type funcNode struct {
	pkg  *Package
	obj  *types.Func   // nil for literals
	decl *ast.FuncDecl // nil for literals
	lit  *ast.FuncLit  // nil for declared functions
	body *ast.BlockStmt

	edges  []edge
	panics []token.Pos // lexical panic(...) statements (nested literals excluded)
}

// name returns the function's declared name ("" for literals).
func (n *funcNode) name() string {
	if n.obj != nil {
		return n.obj.Name()
	}
	return ""
}

// recvTypeName returns the receiver's named type ("" for functions and
// literals).
func (n *funcNode) recvTypeName() string {
	if n.obj == nil {
		return ""
	}
	sig, ok := n.obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

type edge struct {
	to      *funcNode
	pos     token.Pos
	guarded bool // the call happens under resilience.Safe
}

type callGraph struct {
	byObj map[*types.Func]*funcNode
	byLit map[*ast.FuncLit]*funcNode
	nodes []*funcNode
	vars  *funcNode // package-level var initializers (not in nodes)

	// pendingIface holds interface-method calls seen during the walk,
	// expanded once every node exists.
	pendingIface []ifaceCall
}

// graph returns the module call graph, building it on first use.
func (p *Program) graph() *callGraph {
	if p.cg == nil {
		p.cg = buildCallGraph(p)
	}
	return p.cg
}

func buildCallGraph(p *Program) *callGraph {
	g := &callGraph{
		byObj: map[*types.Func]*funcNode{},
		byLit: map[*ast.FuncLit]*funcNode{},
		vars:  &funcNode{},
	}
	// Pass 1: a node per function declaration.
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &funcNode{pkg: pkg, obj: obj, decl: fd, body: fd.Body}
				g.byObj[obj] = n
				g.nodes = append(g.nodes, n)
			}
		}
	}
	// Pass 2: walk bodies and var initializers, adding literals and edges.
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Body != nil {
						g.walkBody(p, pkg, g.byObj[pkg.Info.Defs[d.Name].(*types.Func)], d.Body)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						if vs, ok := spec.(*ast.ValueSpec); ok {
							for _, v := range vs.Values {
								g.walkBody(p, pkg, g.vars, v)
							}
						}
					}
				}
			}
		}
	}
	g.resolveInterfaceCalls(p)
	return g
}

// litNode returns (creating if needed) the node for a literal inside pkg.
func (g *callGraph) litNode(p *Program, pkg *Package, lit *ast.FuncLit) *funcNode {
	if n, ok := g.byLit[lit]; ok {
		return n
	}
	n := &funcNode{pkg: pkg, lit: lit, body: lit.Body}
	g.byLit[lit] = n
	g.nodes = append(g.nodes, n)
	g.walkBody(p, pkg, n, lit.Body)
	return n
}

// ifaceCall is an unresolved call through an interface method, recorded
// during the walk and expanded once all nodes exist.
type ifaceCall struct {
	from   *funcNode
	method *types.Func
	pos    token.Pos
}

// walkBody scans one function body (or var initializer), excluding
// nested literals, which get their own nodes, for calls, function
// references and panic statements.
func (g *callGraph) walkBody(p *Program, pkg *Package, from *funcNode, body ast.Node) {
	info := pkg.Info
	// called holds what recordCall already made edges of (a call's
	// function, Safe's argument): no second, unguarded reference edge.
	called := map[ast.Expr]bool{}
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.FuncLit:
			// The literal's own statements belong to the literal node;
			// the enclosing function gets an (unguarded) edge to it,
			// unless a Safe call claimed it first with a guarded one.
			if !called[node] {
				g.addLitEdge(p, pkg, from, node, false)
			}
			return false
		case *ast.CallExpr:
			g.recordCall(p, pkg, from, node, called)
		case *ast.Ident, *ast.SelectorExpr:
			if fn := funcOf(info, node.(ast.Expr)); fn != nil && !called[node.(ast.Expr)] {
				g.addEdge(from, fn, node.Pos(), false)
			}
			if sel, ok := node.(*ast.SelectorExpr); ok {
				ast.Inspect(sel.X, walk)
				return false // sel.Sel names the function just handled
			}
		}
		return true
	}
	ast.Inspect(body, walk)
	// Lexical panics.
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && isBuiltin(info, call, "panic") {
			from.panics = append(from.panics, call.Pos())
		}
		return true
	})
}

// addLitEdge connects from -> lit (creating the literal node).
func (g *callGraph) addLitEdge(p *Program, pkg *Package, from *funcNode, lit *ast.FuncLit, guarded bool) {
	n := g.litNode(p, pkg, lit)
	from.edges = append(from.edges, edge{to: n, pos: lit.Pos(), guarded: guarded})
}

// recordCall resolves one call expression into edges, marking the
// expressions it consumed in called.
func (g *callGraph) recordCall(p *Program, pkg *Package, from *funcNode, call *ast.CallExpr, called map[ast.Expr]bool) {
	fn := calleeFunc(pkg.Info, call)
	if fn == nil {
		return
	}
	called[ast.Unparen(call.Fun)] = true
	// resilience.Safe(f): the function value f runs under recover — mark
	// the edge guarded.
	if fn.Name() == "Safe" && fn.Pkg() != nil && pathSuffix(fn.Pkg().Path(), "internal/resilience") {
		if len(call.Args) == 1 {
			arg := ast.Unparen(call.Args[0])
			called[arg] = true
			if lit, ok := arg.(*ast.FuncLit); ok {
				g.addLitEdge(p, pkg, from, lit, true)
			} else if target := funcOf(pkg.Info, arg); target != nil {
				g.addEdge(from, target, call.Pos(), true)
			}
		}
	}
	g.addEdge(from, fn, call.Pos(), false)
}

// addEdge connects from -> fn. A call through an interface method is
// resolved after every node exists.
func (g *callGraph) addEdge(from *funcNode, fn *types.Func, pos token.Pos, guarded bool) {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
		g.pendingIface = append(g.pendingIface, ifaceCall{from: from, method: fn, pos: pos})
		return
	}
	if n := g.byObj[fn]; n != nil {
		from.edges = append(from.edges, edge{to: n, pos: pos, guarded: guarded})
	}
}

// resolveInterfaceCalls expands recorded interface calls to every
// concrete module method implementing the interface.
func (g *callGraph) resolveInterfaceCalls(p *Program) {
	calls := g.pendingIface
	g.pendingIface = nil
	for _, ic := range calls {
		iface, ok := ic.method.Type().(*types.Signature)
		if !ok {
			continue
		}
		recv := iface.Recv().Type()
		it, ok := recv.Underlying().(*types.Interface)
		if !ok {
			continue
		}
		for obj, n := range g.byObj {
			sig, ok := obj.Type().(*types.Signature)
			if !ok || sig.Recv() == nil {
				continue
			}
			if obj.Name() != ic.method.Name() {
				continue
			}
			rt := sig.Recv().Type()
			if types.Implements(rt, it) || types.Implements(types.NewPointer(rt), it) {
				ic.from.edges = append(ic.from.edges, edge{to: n, pos: ic.pos})
			}
		}
	}
}

// reach returns every node reachable from roots. skip, when non-nil and
// true for an edge, prunes traversal across it (panicpath prunes guarded
// and annotated call sites).
func (g *callGraph) reach(roots []*funcNode, skip func(edge) bool) map[*funcNode]bool {
	seen := map[*funcNode]bool{}
	var visit func(n *funcNode)
	visit = func(n *funcNode) {
		if n == nil || seen[n] {
			return
		}
		seen[n] = true
		for _, e := range n.edges {
			if skip != nil && skip(e) {
				continue
			}
			visit(e.to)
		}
	}
	for _, r := range roots {
		visit(r)
	}
	return seen
}
