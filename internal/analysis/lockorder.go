package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockOrder keeps the whole-program mutex-acquisition graph acyclic: a
// consistent global acquisition order is the only thing standing between
// nested locks and a deadlock, and this analyzer discovers the order
// instead of trusting it. It currently finds no nesting at all. The one
// nesting the serving stack has at runtime — a hot reload holds
// registry.Model.reloadMu across the candidate's verification inference,
// which takes exec.job.mu — runs through Swap's verify parameter, a
// function value the call graph does not resolve (see callgraph.go).
// The analysis:
//
//   - every sync.Mutex / sync.RWMutex field or package-level variable is
//     a lock class (all instances of registry.Model.mu are one class —
//     if two instances of the same class are ever nested, that is
//     itself reported, since self-edges are cycles);
//   - walking each function body in source order with a held-lock set
//     (defer mu.Unlock() keeps the lock held to the end of the body),
//     every acquisition under a held lock adds an edge held → acquired,
//     and so does every lock transitively acquired by a call made while
//     a lock is held;
//   - the resulting class graph must be acyclic. Each edge inside a
//     cycle is one finding, and every finding carries the full cycle and
//     the canonical order of the acyclic remainder, so the fix — reorder
//     or annotate — is legible from the report alone.
//
// //bitflow:lock-ok <reason> on an acquisition site drops the edges that
// site generates (for acquisitions proven safe by construction, e.g.
// ordered by address or guarded by a trylock protocol).
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "whole-program mutex acquisition graph must be acyclic (consistent global lock order)",
	Run:  runLockOrder,
}

func runLockOrder(p *Program) []Finding {
	findings, _ := p.lockOrder()
	return findings
}

// DiscoveredLockOrder returns the canonical acquisition order of every
// lock class that participates in at least one nesting edge, plus the
// isolated classes (never nested, safe in any order). cmd/bitflow-vet
// -lock-order prints it; cycle findings embed it.
func DiscoveredLockOrder(p *Program) (ordered []string, isolated []string) {
	_, lg := p.lockOrder()
	return lg.order, lg.isolated
}

// lockClass is one mutex field or variable.
type lockClass struct {
	v    *types.Var
	name string // e.g. "registry.Registry.reloadMu" or "exec.poolMu"
}

// lockEdge is one discovered held → acquired nesting.
type lockEdge struct {
	from, to *lockClass
	pos      token.Pos // the inner acquisition (or call) site
}

// lockGraph is the analysis result shared by the analyzer and the
// -lock-order report.
type lockGraph struct {
	classes  []*lockClass
	edges    []lockEdge
	order    []string // topological order of classes with edges (cycles broken deterministically)
	isolated []string // classes never nested with another
}

func (p *Program) lockOrder() ([]Finding, *lockGraph) {
	lg := &lockGraph{}
	classes := map[*types.Var]*lockClass{}
	classFor := func(pkg *Package, e ast.Expr) *lockClass {
		v, owner := mutexVar(pkg.Info, e)
		if v == nil {
			return nil
		}
		if c, ok := classes[v]; ok {
			return c
		}
		name := v.Name()
		if owner != "" {
			name = owner + "." + name
		}
		if v.Pkg() != nil {
			name = v.Pkg().Name() + "." + name
		}
		c := &lockClass{v: v, name: name}
		classes[v] = c
		lg.classes = append(lg.classes, c)
		return c
	}

	g := p.graph()

	// Pass 1: per-node lexical acquisitions (for the transitive sets).
	type acq struct {
		class   *lockClass
		excused bool
	}
	nodeAcq := map[*funcNode][]acq{}
	for _, n := range g.nodes {
		p.walkLockOps(n, func(op lockOp) {
			if op.kind != opLock {
				return
			}
			c := classFor(n.pkg, op.recv)
			if c == nil {
				return
			}
			ok, _ := p.allowed(op.pos, "lock-ok")
			nodeAcq[n] = append(nodeAcq[n], acq{class: c, excused: ok})
		})
	}

	// transitive acquisitions: locks a call into n may take, directly or
	// through callees. Memoized DFS, cycle-safe.
	transMemo := map[*funcNode]map[*lockClass]bool{}
	var trans func(n *funcNode, stack map[*funcNode]bool) map[*lockClass]bool
	trans = func(n *funcNode, stack map[*funcNode]bool) map[*lockClass]bool {
		if m, ok := transMemo[n]; ok {
			return m
		}
		if stack[n] {
			return nil // recursion; the fixpoint is reached by the first visit
		}
		stack[n] = true
		m := map[*lockClass]bool{}
		for _, a := range nodeAcq[n] {
			if !a.excused {
				m[a.class] = true
			}
		}
		for _, e := range n.edges {
			for c := range trans(e.to, stack) {
				m[c] = true
			}
		}
		delete(stack, n)
		transMemo[n] = m
		return m
	}

	// Pass 2: simulate each body in source order with a held set.
	var bare []Finding
	seenEdge := map[[2]*lockClass]bool{}
	addEdge := func(from, to *lockClass, pos token.Pos) {
		key := [2]*lockClass{from, to}
		if seenEdge[key] {
			return
		}
		seenEdge[key] = true
		lg.edges = append(lg.edges, lockEdge{from: from, to: to, pos: pos})
	}
	for _, n := range g.nodes {
		held := map[*lockClass]bool{}
		var heldOrder []*lockClass // deterministic iteration
		hold := func(c *lockClass) {
			if !held[c] {
				held[c] = true
				heldOrder = append(heldOrder, c)
			}
		}
		release := func(c *lockClass) {
			if held[c] {
				delete(held, c)
				for i, h := range heldOrder {
					if h == c {
						heldOrder = append(heldOrder[:i], heldOrder[i+1:]...)
						break
					}
				}
			}
		}
		p.walkLockOps(n, func(op lockOp) {
			switch op.kind {
			case opLock:
				c := classFor(n.pkg, op.recv)
				if c == nil {
					return
				}
				ok, missing := p.allowed(op.pos, "lock-ok")
				if missing != nil {
					bare = append(bare, p.finding("lockorder", op.pos,
						"/bitflow:lock-ok needs a justification string"))
				}
				if !ok {
					for _, h := range heldOrder {
						addEdge(h, c, op.pos)
					}
				}
				hold(c)
			case opUnlock:
				if c := classFor(n.pkg, op.recv); c != nil && !op.deferred {
					release(c)
				}
				// deferred unlocks keep the lock held to the end of the
				// body — exactly how the simulation already behaves.
			case opCall:
				if len(heldOrder) == 0 {
					return
				}
				callee := op.callee
				if callee == nil {
					return
				}
				if ok, _ := p.allowed(op.pos, "lock-ok"); ok {
					return
				}
				for c := range trans(callee, map[*funcNode]bool{}) {
					for _, h := range heldOrder {
						// h == c is a self-edge: the same class nested
						// through a call, reported like any other cycle.
						addEdge(h, c, op.pos)
					}
				}
			}
		})
	}

	return append(bare, p.lockCycles(lg)...), lg
}

// lockCycles detects cycles in the class graph, fills in lg.order /
// lg.isolated, and renders one finding per edge inside a cycle.
func (p *Program) lockCycles(lg *lockGraph) []Finding {
	adj := map[*lockClass][]lockEdge{}
	inEdge := map[*lockClass]bool{}
	for _, e := range lg.edges {
		adj[e.from] = append(adj[e.from], e)
		inEdge[e.from] = true
		inEdge[e.to] = true
	}

	// Tarjan SCC over the class graph.
	index := map[*lockClass]int{}
	low := map[*lockClass]int{}
	onStack := map[*lockClass]bool{}
	var stack []*lockClass
	var sccs [][]*lockClass
	next := 0
	var strong func(c *lockClass)
	strong = func(c *lockClass) {
		index[c] = next
		low[c] = next
		next++
		stack = append(stack, c)
		onStack[c] = true
		for _, e := range adj[c] {
			w := e.to
			if _, seen := index[w]; !seen {
				strong(w)
				if low[w] < low[c] {
					low[c] = low[w]
				}
			} else if onStack[w] && index[w] < low[c] {
				low[c] = index[w]
			}
		}
		if low[c] == index[c] {
			var scc []*lockClass
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == c {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	sorted := append([]*lockClass(nil), lg.classes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].name < sorted[j].name })
	for _, c := range sorted {
		if _, seen := index[c]; !seen {
			strong(c)
		}
	}

	cyclic := map[*lockClass]bool{}
	for _, scc := range sccs {
		if len(scc) > 1 {
			for _, c := range scc {
				cyclic[c] = true
			}
		}
	}

	// Canonical order: Kahn over the non-cyclic portion, name-sorted
	// ready set, cyclic classes appended name-sorted at the end.
	lg.order, lg.isolated = topoOrder(lg, cyclic, inEdge)

	var out []Finding
	emit := func(e lockEdge, cycle string) {
		out = append(out, p.finding("lockorder", e.pos,
			"lock-order cycle: %s; acquisition order must be globally consistent (canonical order: %s); reorder the acquisitions or annotate //bitflow:lock-ok <reason>",
			cycle, strings.Join(lg.order, " -> ")))
	}
	for _, e := range lg.edges {
		switch {
		case e.from == e.to:
			emit(e, e.from.name+" -> "+e.to.name+" (same class nested)")
		case cyclic[e.from] && cyclic[e.to] && sameSCC(sccs, e.from, e.to):
			emit(e, cycleString(sccs, e))
		}
	}
	return out
}

// sameSCC reports whether both classes share a strongly connected
// component of size > 1.
func sameSCC(sccs [][]*lockClass, a, b *lockClass) bool {
	for _, scc := range sccs {
		if len(scc) < 2 {
			continue
		}
		hasA, hasB := false, false
		for _, c := range scc {
			if c == a {
				hasA = true
			}
			if c == b {
				hasB = true
			}
		}
		if hasA && hasB {
			return true
		}
	}
	return false
}

// cycleString renders the SCC the edge belongs to as "A -> B -> A".
func cycleString(sccs [][]*lockClass, e lockEdge) string {
	for _, scc := range sccs {
		if len(scc) < 2 {
			continue
		}
		in := false
		for _, c := range scc {
			if c == e.from {
				in = true
				break
			}
		}
		if !in {
			continue
		}
		names := make([]string, 0, len(scc))
		for _, c := range scc {
			names = append(names, c.name)
		}
		sort.Strings(names)
		return strings.Join(names, " -> ") + " -> " + names[0]
	}
	return e.from.name + " -> " + e.to.name
}

// topoOrder produces the canonical acquisition order (classes that
// participate in edges, topologically sorted with a name-sorted ready
// set) and the isolated classes.
func topoOrder(lg *lockGraph, cyclic, inEdge map[*lockClass]bool) (order, isolated []string) {
	indeg := map[*lockClass]int{}
	succ := map[*lockClass][]*lockClass{}
	for _, e := range lg.edges {
		if e.from == e.to || cyclic[e.from] || cyclic[e.to] {
			continue
		}
		succ[e.from] = append(succ[e.from], e.to)
		indeg[e.to]++
	}
	var ready []*lockClass
	for _, c := range lg.classes {
		if !inEdge[c] {
			isolated = append(isolated, c.name)
			continue
		}
		if cyclic[c] {
			continue
		}
		if indeg[c] == 0 {
			ready = append(ready, c)
		}
	}
	sort.Strings(isolated)
	byName := func(cs []*lockClass) {
		sort.Slice(cs, func(i, j int) bool { return cs[i].name < cs[j].name })
	}
	byName(ready)
	for len(ready) > 0 {
		c := ready[0]
		ready = ready[1:]
		order = append(order, c.name)
		var newly []*lockClass
		for _, s := range succ[c] {
			indeg[s]--
			if indeg[s] == 0 {
				newly = append(newly, s)
			}
		}
		byName(newly)
		ready = append(ready, newly...)
		byName(ready)
	}
	var cyc []string
	for c := range cyclic {
		cyc = append(cyc, c.name)
	}
	sort.Strings(cyc)
	order = append(order, cyc...)
	return order, isolated
}

// lockOpKind classifies one event of the body walk.
type lockOpKind int

const (
	opLock lockOpKind = iota
	opUnlock
	opCall
)

// lockOp is one event: a Lock/RLock, an Unlock/RUnlock, or a call to a
// module function (whose transitive acquisitions nest under held locks).
type lockOp struct {
	kind     lockOpKind
	recv     ast.Expr  // the mutex expression, for opLock/opUnlock
	callee   *funcNode // for opCall
	pos      token.Pos
	deferred bool
}

// walkLockOps walks one node's body in source order, reporting lock
// operations and module calls. Nested literals are their own nodes and
// are handled by the call-graph edge to them (an opCall).
func (p *Program) walkLockOps(n *funcNode, visit func(lockOp)) {
	g := p.graph()
	info := n.pkg.Info
	var walk func(node ast.Node, deferred bool) bool
	walk = func(node ast.Node, deferred bool) bool {
		switch x := node.(type) {
		case *ast.FuncLit:
			if ln := g.byLit[x]; ln != nil {
				visit(lockOp{kind: opCall, callee: ln, pos: x.Pos(), deferred: deferred})
			}
			return false
		case *ast.DeferStmt:
			ast.Inspect(x.Call, func(inner ast.Node) bool {
				return walk(inner, true)
			})
			return false
		case *ast.CallExpr:
			sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr)
			if ok {
				switch sel.Sel.Name {
				case "Lock", "RLock":
					if v, _ := mutexVar(info, sel.X); v != nil {
						visit(lockOp{kind: opLock, recv: sel.X, pos: x.Pos(), deferred: deferred})
						return true
					}
				case "Unlock", "RUnlock":
					if v, _ := mutexVar(info, sel.X); v != nil {
						visit(lockOp{kind: opUnlock, recv: sel.X, pos: x.Pos(), deferred: deferred})
						return true
					}
				}
			}
			if fn := calleeFunc(info, x); fn != nil {
				if callee := g.byObj[fn]; callee != nil {
					visit(lockOp{kind: opCall, callee: callee, pos: x.Pos(), deferred: deferred})
				}
			}
			return true
		}
		return true
	}
	ast.Inspect(n.body, func(node ast.Node) bool {
		return walk(node, false)
	})
}

// mutexVar resolves an expression to the sync.Mutex/RWMutex variable it
// denotes (a field or a package-level/local var), plus the owning named
// type's name for fields ("" otherwise).
func mutexVar(info *types.Info, e ast.Expr) (*types.Var, string) {
	e = ast.Unparen(e)
	var v *types.Var
	owner := ""
	switch x := e.(type) {
	case *ast.Ident:
		v, _ = info.Uses[x].(*types.Var)
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok {
			v, _ = sel.Obj().(*types.Var)
			t := sel.Recv()
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			if named, ok := t.(*types.Named); ok {
				owner = named.Obj().Name()
			}
		} else {
			v, _ = info.Uses[x.Sel].(*types.Var)
		}
	default:
		return nil, ""
	}
	if v == nil || !isMutexType(v.Type()) {
		return nil, ""
	}
	return v, owner
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex (directly,
// or a pointer to one).
func isMutexType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}
