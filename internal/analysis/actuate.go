package analysis

import (
	"go/ast"
	"go/types"
)

// Actuate enforces the control loop's two structural invariants:
//
//  1. internal/control stays mechanism-free: it computes setpoints and
//     must never import the packages it steers (serve, registry, graph).
//     The dependency points the other way — serve implements
//     control.Actuator — so the controller can be tested against fakes
//     and can never reach around its own actuation interface.
//  2. Actuator implementations actuate through exported APIs only: an
//     Apply body must not write struct fields. A direct field poke
//     (gate capacity, replica count) would bypass the ordering and
//     verification the exported resize path guarantees (admission never
//     exceeding serving capacity, grown
//     replicas proved bit-exact). `//bitflow:actuate-ok <reason>`
//     excuses a deliberate exception (e.g. a test fake's ledger).
var Actuate = &Analyzer{
	Name: "actuate",
	Doc:  "internal/control importing actuated packages; Actuator.Apply writing struct fields directly",
	Run:  runActuate,
}

// controlForbiddenImports are the package roles internal/control must
// never depend on: everything it actuates or observes through
// interfaces.
var controlForbiddenImports = []string{
	"internal/serve", "internal/registry", "internal/graph",
}

func runActuate(p *Program) []Finding {
	var out []Finding
	for _, pkg := range p.Pkgs {
		if pathSuffix(pkg.Path, "internal/control") {
			out = append(out, checkControlImports(p, pkg)...)
		}
		out = append(out, checkActuatorBodies(p, pkg)...)
	}
	return out
}

// checkControlImports flags forbidden imports of the control package.
func checkControlImports(p *Program, pkg *Package) []Finding {
	var out []Finding
	for _, f := range pkg.Files {
		for _, imp := range f.Imports {
			path := imp.Path.Value
			path = path[1 : len(path)-1] // strip quotes
			for _, forbidden := range controlForbiddenImports {
				if pathSuffix(path, forbidden) {
					out = append(out, p.finding("actuate", imp.Pos(),
						"internal/control must not import %s: the controller computes setpoints; mechanism belongs behind control.Actuator", path))
				}
			}
		}
	}
	return out
}

// actuatorInterface resolves the control.Actuator interface as seen by
// pkg: from the package itself when it IS internal/control, else from
// its imports. Nil when the package cannot name the interface.
func actuatorInterface(pkg *Package) *types.Interface {
	lookup := func(tp *types.Package) *types.Interface {
		obj := tp.Scope().Lookup("Actuator")
		if obj == nil {
			return nil
		}
		iface, _ := obj.Type().Underlying().(*types.Interface)
		return iface
	}
	if pathSuffix(pkg.Path, "internal/control") {
		return lookup(pkg.Types)
	}
	for _, imp := range pkg.Types.Imports() {
		if pathSuffix(imp.Path(), "internal/control") {
			return lookup(imp)
		}
	}
	return nil
}

// checkActuatorBodies flags struct-field writes inside the Apply method
// of any type implementing control.Actuator.
func checkActuatorBodies(p *Program, pkg *Package) []Finding {
	iface := actuatorInterface(pkg)
	if iface == nil || iface.NumMethods() == 0 {
		return nil
	}
	var out []Finding
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Name.Name != "Apply" || fd.Body == nil {
				continue
			}
			obj := pkg.Info.Defs[fd.Name]
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			recv := fn.Type().(*types.Signature).Recv()
			if recv == nil {
				continue
			}
			rt := recv.Type()
			if !types.Implements(rt, iface) && !types.Implements(types.NewPointer(rt), iface) {
				continue
			}
			out = append(out, findFieldWrites(p, pkg, fd.Body)...)
		}
	}
	return out
}

const actuateMsg = "Actuator.Apply writes a struct field directly; actuate through the exported API (registry.Model.Resize)"

// findFieldWrites walks a function body flagging assignments, op-assigns
// and inc/dec whose target is a struct field selector.
func findFieldWrites(p *Program, pkg *Package, body *ast.BlockStmt) []Finding {
	var out []Finding
	ast.Inspect(body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range node.Lhs {
				if isFieldSelector(pkg.Info, lhs) {
					out = append(out, p.excusable("actuate", node.Pos(), "actuate-ok", actuateMsg)...)
				}
			}
		case *ast.IncDecStmt:
			if isFieldSelector(pkg.Info, node.X) {
				out = append(out, p.excusable("actuate", node.Pos(), "actuate-ok", actuateMsg)...)
			}
		}
		return true
	})
	return out
}

// isFieldSelector reports whether expr selects a struct field (the only
// selector an assignment can write through).
func isFieldSelector(info *types.Info, expr ast.Expr) bool {
	sel, ok := ast.Unparen(expr).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	s, ok := info.Selections[sel]
	if !ok {
		return false
	}
	v, ok := s.Obj().(*types.Var)
	return ok && v.IsField()
}
