package lint

import (
	"go/ast"
	"go/types"
	"slices"
)

// MapOrder flags `for ... range` loops over maps whose bodies have
// order-sensitive effects: writing output, appending to a slice declared
// outside the loop, or driving the simulation (any call that touches a
// sim.Proc/Env/Event/Queue/Resource). Go randomizes map iteration order, so
// any such loop leaks host entropy into results or into the simulated event
// stream — the class of bug PR 1 fixed in Result.Print.
//
// The simulation check also looks one call down: a body that calls a
// function or method of the same package whose own body drives the
// simulation is flagged too. A clock read (Now) there is not driving it.
//
// The one sanctioned shape is collect-then-sort: a loop that only appends
// keys/values to a slice which is passed to a sort call later in the same
// function is not flagged.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "forbid order-sensitive effects inside map-range loops",
	Run:  runMapOrder,
}

func runMapOrder(pass *Pass) {
	decls := funcDecls(pass)
	for _, f := range pass.Files {
		for _, fb := range funcBodies(f) {
			fb := fb
			ast.Inspect(fb.body, func(n ast.Node) bool {
				// Nested function bodies are visited on their own.
				if n != fb.node {
					switch n.(type) {
					case *ast.FuncLit, *ast.FuncDecl:
						return false
					}
				}
				rng, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				tv, ok := pass.Info.Types[rng.X]
				if !ok {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					return true
				}
				checkMapRange(pass, rng, fb.body, decls)
				return true
			})
		}
	}
}

// checkMapRange classifies the loop body's effects and reports if any are
// order-sensitive. decls are the package's function declarations (funcDecls).
func checkMapRange(pass *Pass, rng *ast.RangeStmt, fnBody *ast.BlockStmt, decls map[types.Object]*ast.FuncDecl) {
	var appendTargets []types.Object
	reported := false
	report := func(format string, args ...any) {
		if !reported {
			reported = true
			pass.Reportf(rng.Pos(), format, args...)
		}
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if reported {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// Effect 1: output writes.
		if fn := calleeFunc(pass.Info, call); fn != nil {
			if funcPkgPath(fn) == "fmt" {
				switch fn.Name() {
				case "Print", "Println", "Printf", "Fprint", "Fprintln", "Fprintf":
					report("map-range body writes output via fmt.%s; output order follows map iteration order — iterate sorted keys", fn.Name())
					return false
				}
			}
			// Effect 2: simulation activity — methods on kernel types.
			if isSimMethod(fn) {
				report("map-range body calls sim method %s; event order follows map iteration order — iterate sorted keys", fn.Name())
				return false
			}
			// ... or a function of this package that drives it itself.
			if fd := decls[fn.Origin()]; fd != nil && drivesSim(pass, fd.Body) {
				report("map-range body calls %s, which drives the simulation; event order follows map iteration order — iterate sorted keys", fn.Name())
				return false
			}
		}
		// Effect 2 (continued): simulation activity — any call handed a
		// *sim.Proc runs simulated work, and its event sequence inherits
		// the map's iteration order.
		for _, arg := range call.Args {
			if tv, ok := pass.Info.Types[arg]; ok && isProcType(tv.Type) {
				report("map-range body performs simulated work (call passes a *sim.Proc); event order follows map iteration order — iterate sorted keys")
				return false
			}
		}
		// Effect 3: appends to slices declared outside the loop.
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
			if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
				if obj := appendTargetOutside(pass, call, rng); obj != nil {
					appendTargets = append(appendTargets, obj)
				}
			}
		}
		return true
	})
	if reported {
		return
	}
	for _, obj := range appendTargets {
		if !sortedLater(pass, obj, rng, fnBody) {
			report("map-range body appends to %q (declared outside the loop) without sorting it afterwards; element order follows map iteration order", obj.Name())
			return
		}
	}
}

// drivesSim reports whether body calls a sim method other than a clock read
// or passes a *sim.Proc to a call.
func drivesSim(pass *Pass, body *ast.BlockStmt) (found bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && !found {
			fn := calleeFunc(pass.Info, call)
			found = fn != nil && fn.Name() != "Now" && isSimMethod(fn) ||
				slices.ContainsFunc(call.Args, func(a ast.Expr) bool { return isProcType(pass.Info.TypeOf(a)) })
		}
		return !found
	})
	return found
}

// appendTargetOutside returns the object a grown slice is appended into, if
// that object is declared outside the range statement (accumulating results
// across iterations). Appends into loop-local scratch are order-safe.
func appendTargetOutside(pass *Pass, call *ast.CallExpr, rng *ast.RangeStmt) types.Object {
	if len(call.Args) == 0 {
		return nil
	}
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := pass.Info.Uses[id]
	if obj == nil {
		return nil
	}
	pos := obj.Pos()
	if pos >= rng.Pos() && pos < rng.End() {
		return nil // declared inside the loop
	}
	return obj
}

// sortedLater reports whether obj is passed to a sort call after the range
// statement within the enclosing function body — the collect-then-sort
// idiom.
func sortedLater(pass *Pass, obj types.Object, rng *ast.RangeStmt, fnBody *ast.BlockStmt) bool {
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if found || n == nil || n.Pos() <= rng.End() {
			return !found
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeFunc(pass.Info, call)
		if fn == nil {
			return true
		}
		switch funcPkgPath(fn) {
		case "sort", "slices":
		default:
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && pass.Info.Uses[id] == obj {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}
