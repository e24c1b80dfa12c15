package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// simPkgPath is the import path of the simulation kernel. Analyzers match
// kernel types by (package path, type name) rather than object identity so
// the analysistest suites can use small stub packages with the same path.
const simPkgPath = "linefs/internal/sim"

// simDomain reports whether a package is part of the deterministic
// simulation domain, where wall-clock time and ambient randomness are
// forbidden. The allowlist is the wall-clock boundary: the bench harness
// measures host elapsed time, and lint is tooling. cmd/, examples/, and the
// module root sit outside internal/ and are exempt by construction.
func simDomain(path string) bool {
	if !strings.HasPrefix(path, "linefs/internal/") {
		return false
	}
	switch path {
	case "linefs/internal/bench", "linefs/internal/lint":
		return false
	}
	return true
}

// calleeFunc resolves the *types.Func a call expression invokes, or nil for
// calls through function values, builtins, and conversions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	f, _ := info.Uses[id].(*types.Func)
	return f
}

// funcSignature returns a function's signature. (The go.mod language level
// predates types.Func.Signature, hence the assertion.)
func funcSignature(f *types.Func) *types.Signature {
	sig, _ := f.Type().(*types.Signature)
	return sig
}

// funcPkgPath returns the import path of the package a function belongs to
// ("" for builtins).
func funcPkgPath(f *types.Func) string {
	if f == nil || f.Pkg() == nil {
		return ""
	}
	return f.Pkg().Path()
}

// namedFrom unwraps pointers and reports the (package path, name) of a named
// type, or ("", "") otherwise.
func namedFrom(t types.Type) (string, string) {
	if t == nil {
		return "", ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return "", ""
	}
	obj := n.Obj()
	if obj.Pkg() == nil {
		return "", ""
	}
	return obj.Pkg().Path(), obj.Name()
}

// isSimType reports whether t names a simulation-kernel type.
func isSimType(t types.Type) bool {
	path, _ := namedFrom(t)
	return path == simPkgPath
}

// isSimMethod reports whether fn is a method on a simulation-kernel type.
func isSimMethod(fn *types.Func) bool {
	recv := funcSignature(fn).Recv()
	return recv != nil && isSimType(recv.Type())
}

// funcDecls indexes a package's function declarations with bodies by their
// objects.
func funcDecls(pass *Pass) map[types.Object]*ast.FuncDecl {
	decls := make(map[types.Object]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				decls[pass.Info.Defs[fd.Name]] = fd
			}
		}
	}
	return decls
}

// isProcType reports whether t is *sim.Proc (or sim.Proc).
func isProcType(t types.Type) bool {
	path, name := namedFrom(t)
	return path == simPkgPath && name == "Proc"
}

// hasProcParam reports whether a function signature takes a *sim.Proc.
func hasProcParam(sig *types.Signature) bool {
	if sig == nil {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isProcType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// fsPkgSuffix matches the log-codec package (and its analysistest stub).
const fsPkgSuffix = "internal/fs"

// isEntryType reports whether t is fs.Entry, unwrapping one pointer.
func isEntryType(t types.Type) bool {
	path, name := namedFrom(t)
	return strings.HasSuffix(path, fsPkgSuffix) && name == "Entry"
}

// isEntrySliceType reports whether t is []*fs.Entry (or []fs.Entry).
func isEntrySliceType(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	return isEntryType(s.Elem())
}

// isByteSlice reports whether t is []byte.
func isByteSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// stripSliceParen unwraps parens and slice expressions: `(x.buf[:0])`
// becomes `x.buf`. Index expressions are kept — m[k] names a different
// element than m.
func stripSliceParen(e ast.Expr) ast.Expr {
	for {
		switch v := e.(type) {
		case *ast.ParenExpr:
			e = v.X
		case *ast.SliceExpr:
			e = v.X
		default:
			return e
		}
	}
}

// chainEqual reports whether two expressions are the same chain of
// identifiers, selectors, and (identically-written identifier) indexes —
// the conservative "same variable or field" test the scratch store-back
// rule uses. Identifiers compare by resolved object when both resolve.
func chainEqual(info *types.Info, a, b ast.Expr) bool {
	a, b = stripSliceParen(a), stripSliceParen(b)
	switch av := a.(type) {
	case *ast.Ident:
		bv, ok := b.(*ast.Ident)
		if !ok {
			return false
		}
		ao, bo := identObj(info, av), identObj(info, bv)
		if ao != nil && bo != nil {
			return ao == bo
		}
		return av.Name == bv.Name
	case *ast.SelectorExpr:
		bv, ok := b.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		return av.Sel.Name == bv.Sel.Name && chainEqual(info, av.X, bv.X)
	case *ast.IndexExpr:
		bv, ok := b.(*ast.IndexExpr)
		if !ok {
			return false
		}
		return chainEqual(info, av.X, bv.X) && chainEqual(info, av.Index, bv.Index)
	case *ast.StarExpr:
		bv, ok := b.(*ast.StarExpr)
		if !ok {
			return false
		}
		return chainEqual(info, av.X, bv.X)
	}
	return false
}

// identObj resolves an identifier to its object (use or def).
func identObj(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// isNilExpr reports whether e is the predeclared nil.
func isNilExpr(info *types.Info, e ast.Expr) bool {
	if tv, ok := info.Types[e]; ok {
		return tv.IsNil()
	}
	return false
}

// exprDesc renders a short description of an expression for diagnostics.
func exprDesc(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return exprDesc(v.X) + "." + v.Sel.Name
	case *ast.IndexExpr:
		return exprDesc(v.X) + "[...]"
	case *ast.StarExpr:
		return "*" + exprDesc(v.X)
	case *ast.ParenExpr:
		return exprDesc(v.X)
	case *ast.SliceExpr:
		return exprDesc(v.X) + "[...]"
	case *ast.CallExpr:
		return exprDesc(v.Fun) + "(...)"
	}
	return "expression"
}

// isBuiltinCall reports whether call invokes the named builtin.
func isBuiltinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

// enclosingFuncs pairs every function body in a file with its AST node, in
// source order: declarations and literals both.
type funcBody struct {
	node ast.Node
	body *ast.BlockStmt
}

// funcBodies returns every function body in the file.
func funcBodies(f *ast.File) []funcBody {
	var out []funcBody
	ast.Inspect(f, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				out = append(out, funcBody{fn, fn.Body})
			}
		case *ast.FuncLit:
			out = append(out, funcBody{fn, fn.Body})
		}
		return true
	})
	return out
}
