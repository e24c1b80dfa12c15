package lint

import (
	"go/ast"
	"strings"
)

// WireCheck flags ignored errors from the binary wire-format and CRC paths:
// log-entry encode/decode, log-ring append/mirror/advance, and replication
// decompression. These errors are the crash-consistency story — a CRC
// mismatch or a mirror gap silently dropped turns "clean prefix after crash"
// into corruption the test suite cannot see. Callers must check the error;
// where an invariant genuinely makes failure impossible, panic on it or
// carry a //lint:allow wirecheck justification.
var WireCheck = &Analyzer{
	Name: "wirecheck",
	Doc:  "forbid ignored errors from wire-format encode/decode and CRC paths",
	Run:  runWireCheck,
}

// wireFuncs maps package-path suffixes to the error-returning wire-format
// functions whose errors must not be dropped. Matching is by suffix so the
// analysistest stubs (same path shape under testdata) exercise the real
// logic.
var wireFuncs = map[string]map[string]bool{
	"internal/fs": {
		"DecodeEntryInto":    true,
		"DecodeAll":          true,
		"DecodeRangeScratch": true,
		"VisitRange":         true,
		"Append":             true,
		"MirrorRaw":          true,
		"AdvanceHead":        true,
		"OpenLogArea":        true,
		// Fault-plane ingress gate: a frame whose CRC scan is dropped gets
		// persisted and acknowledged corrupt.
		"VerifyWire": true,
	},
	"internal/compress": {
		"DecompressInto": true,
	},
	"internal/core": {
		// Replication frame decode, whole or one sub-block at a time, and the
		// table check before it: a frame that fails any of them must never
		// be persisted or acknowledged.
		"decodeBatchChunk": true,
		"unzipSubBlock":    true,
		"checkTable":       true,
	},
}

func runWireCheck(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok && wireTarget(pass, call) {
					pass.Reportf(n.Pos(),
						"result of %s dropped; wire-format/CRC errors must be checked", wireName(pass, call))
					return false
				}
			case *ast.AssignStmt:
				// A call on the RHS with the error position assigned to `_`.
				if len(n.Rhs) != 1 {
					return true
				}
				call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
				if !ok || !wireTarget(pass, call) {
					return true
				}
				last := n.Lhs[len(n.Lhs)-1]
				if id, ok := last.(*ast.Ident); ok && id.Name == "_" {
					pass.Reportf(n.Pos(),
						"error from %s assigned to _; wire-format/CRC errors must be checked", wireName(pass, call))
				}
			}
			return true
		})
	}
}

// wireTarget reports whether the call invokes a guarded wire-format
// function.
func wireTarget(pass *Pass, call *ast.CallExpr) bool {
	fn := calleeFunc(pass.Info, call)
	if fn == nil {
		return false
	}
	pkg := funcPkgPath(fn)
	for suffix, names := range wireFuncs {
		if strings.HasSuffix(pkg, suffix) && names[fn.Name()] {
			return true
		}
	}
	return false
}

// wireName renders the called function for a diagnostic.
func wireName(pass *Pass, call *ast.CallExpr) string {
	fn := calleeFunc(pass.Info, call)
	if fn == nil {
		return "wire-format call"
	}
	if recv := funcSignature(fn).Recv(); recv != nil {
		if _, name := namedFrom(recv.Type()); name != "" {
			return name + "." + fn.Name()
		}
	}
	return fn.Pkg().Name() + "." + fn.Name()
}
