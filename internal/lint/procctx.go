package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ProcCtx flags host-concurrency primitives inside simulation-process
// callbacks: raw `go` statements, channel operations (send, receive, select,
// close, make(chan)), and sync/sync.atomic references. A function that takes
// a *sim.Proc runs under the kernel's cooperative event loop, where exactly
// one goroutine is runnable; host-level concurrency there either deadlocks
// the handoff protocol or reintroduces scheduler nondeterminism. Blocking,
// signalling, and queuing must go through the Env/Proc primitives (Sleep,
// Wait, Event, Queue, Resource).
//
// The kernel itself (internal/sim) implements those primitives and is
// exempt.
var ProcCtx = &Analyzer{
	Name: "procctx",
	Doc:  "forbid raw goroutines, channels, and sync primitives in sim-process callbacks",
	Run:  runProcCtx,
}

func runProcCtx(pass *Pass) {
	if pass.Pkg.Path() == simPkgPath {
		return
	}
	for _, f := range pass.Files {
		for _, fb := range funcBodies(f) {
			if !procContext(pass, fb.node) {
				continue
			}
			checkProcBody(pass, fb.body)
		}
	}
}

// procContext reports whether a function runs as (or inside) a simulation
// process: its signature takes a *sim.Proc.
func procContext(pass *Pass, node ast.Node) bool {
	switch fn := node.(type) {
	case *ast.FuncDecl:
		f, ok := pass.Info.Defs[fn.Name].(*types.Func)
		if !ok {
			return false
		}
		return hasProcParam(funcSignature(f))
	case *ast.FuncLit:
		tv, ok := pass.Info.Types[fn.Type]
		if !ok {
			return false
		}
		sig, ok := tv.Type.(*types.Signature)
		if !ok {
			return false
		}
		return hasProcParam(sig)
	}
	return false
}

// checkProcBody walks one process function body. Nested function literals
// are included: they execute on the process goroutine unless they are
// process entry points themselves, which are separately checked anyway.
func checkProcBody(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			pass.Reportf(n.Pos(),
				"raw goroutine inside a sim-process callback; spawn cooperative work with Env.Go")
			return false
		case *ast.SendStmt:
			pass.Reportf(n.Pos(),
				"channel send inside a sim-process callback; signal with sim.Event or sim.Queue")
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				pass.Reportf(n.Pos(),
					"channel receive inside a sim-process callback; wait with Proc.Wait or sim.Queue")
				return false
			}
		case *ast.SelectStmt:
			pass.Reportf(n.Pos(),
				"select inside a sim-process callback; wait on a sim.Event with Proc.Wait or Proc.WaitTimeout")
			return false
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if b, ok := pass.Info.Uses[id].(*types.Builtin); ok && (b.Name() == "make" || b.Name() == "close") && chanArg(pass, n) {
					pass.Reportf(n.Pos(),
						"%s of a channel inside a sim-process callback; use sim.Event or sim.Queue", b.Name())
					return false
				}
			}
		case *ast.Ident:
			if obj := pass.Info.Uses[n]; obj != nil && obj.Pkg() != nil {
				switch obj.Pkg().Path() {
				case "sync", "sync/atomic":
					pass.Reportf(n.Pos(),
						"%s.%s inside a sim-process callback; the kernel is single-threaded — use sim.Resource for mutual exclusion", obj.Pkg().Name(), obj.Name())
				}
			}
		}
		return true
	})
}

// chanArg reports whether a make/close call operates on a channel type.
func chanArg(pass *Pass, call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	tv, ok := pass.Info.Types[call.Args[0]]
	if !ok {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}
