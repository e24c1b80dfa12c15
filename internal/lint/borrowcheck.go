package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// BorrowCheck enforces the borrow half of the data-plane memory contract
// (DESIGN.md §9 rule 1, §10): slices produced by the borrowing decode APIs
// alias a scratch buffer the caller will reuse, so they must not outlive
// the borrow window. The analyzer is a flow-sensitive, intra-procedural
// taint pass. Taint is born at:
//
//   - fs.DecodeEntryInto(&e, buf): e (its Data aliases buf)
//   - fs.DecodeAll / LogArea.DecodeRangeScratch:
//     the returned []*Entry
//   - LogArea.VisitRange: the *Entry handed to the callback literal
//
// and propagates through locals, slicing, indexing, range statements, and
// results of module-internal calls that return entries or byte slices.
// An escape is reported when borrowed data is:
//
//   - stored to a struct field, map element, dereference, or package-level
//     variable
//   - sent on a channel, or passed to a retaining mailbox-style call
//     (Send / Trigger / Put / Submit)
//   - captured by a function literal (which may run after the window)
//   - returned without an explicit copy
//
// Copying clears taint: string(b), append(dst, b...) (spread of bytes is a
// copy), and overwriting a borrowed entry's Data with owned bytes. APIs
// whose documented contract is to return borrowed data carry a
// //lint:allow borrowcheck directive at the return site.
var BorrowCheck = &Analyzer{
	Name: "borrowcheck",
	Doc:  "forbid borrowed decode results escaping the borrow window",
	Run:  runBorrowCheck,
}

// taintKind classifies what a tainted object aliases.
type taintKind int

const (
	taintNone    taintKind = iota
	taintEntry             // *fs.Entry (or fs.Entry) whose Data borrows a buffer
	taintEntries           // []*fs.Entry of borrowing entries
	taintBytes             // []byte aliasing a scratch buffer
)

func (k taintKind) String() string {
	switch k {
	case taintEntry:
		return "borrowed entry"
	case taintEntries:
		return "borrowed entries"
	case taintBytes:
		return "borrowed bytes"
	}
	return "untainted"
}

// retainingCalls are method/function names that hand their arguments to
// another process or a later time: the simulation mailbox surface.
var retainingCalls = map[string]bool{
	"Send":    true,
	"Trigger": true,
	"Put":     true,
	"Submit":  true,
}

func runBorrowCheck(pass *Pass) {
	bc := &borrowChecker{pass: pass, seeds: make(map[*ast.FuncLit][]types.Object)}
	for _, f := range pass.Files {
		for _, fb := range funcBodies(f) {
			bc.checkFunc(fb)
		}
	}
}

type borrowChecker struct {
	pass *Pass
	// seeds maps VisitRange callback literals to their borrowed parameter
	// objects, recorded while scanning the enclosing function (funcBodies
	// returns enclosing functions before their nested literals).
	seeds map[*ast.FuncLit][]types.Object
}

// checkFunc runs the taint pass over one function body.
func (bc *borrowChecker) checkFunc(fb funcBody) {
	taint := make(map[types.Object]taintKind)
	if lit, ok := fb.node.(*ast.FuncLit); ok {
		for _, obj := range bc.seeds[lit] {
			taint[obj] = taintEntry
		}
	}
	bc.walk(fb, fb.body, taint)
}

// walk visits nodes in source order, updating taint and reporting escapes.
func (bc *borrowChecker) walk(fb funcBody, body *ast.BlockStmt, taint map[types.Object]taintKind) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if n == fb.node {
				return true
			}
			// Nested literal: record VisitRange seeds elsewhere; here only
			// check for captures of currently-borrowed outer state. Its own
			// body gets a separate funcBodies pass.
			bc.checkCapture(n, taint)
			return false
		case *ast.AssignStmt:
			bc.assign(n, taint)
			return true
		case *ast.RangeStmt:
			bc.rangeStmt(n, taint)
			return true
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if k := bc.exprTaint(res, taint); k != taintNone {
					bc.pass.Reportf(res.Pos(),
						"%s (%s) returned; the caller outlives the borrow window — copy Data out (append([]byte(nil), d...)) or document the contract",
						k, exprDesc(res))
				}
			}
			return true
		case *ast.SendStmt:
			if k := bc.exprTaint(n.Value, taint); k != taintNone {
				bc.pass.Reportf(n.Pos(),
					"%s (%s) sent on a channel; the receiver outlives the borrow window", k, exprDesc(n.Value))
			}
			return true
		case *ast.CallExpr:
			bc.call(n, taint)
			return true
		}
		return true
	})
}

// assign records taint sources and propagation, and reports escaping
// stores.
func (bc *borrowChecker) assign(n *ast.AssignStmt, taint map[types.Object]taintKind) {
	// Multi-value form: x, y, ... := call(...).
	if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
		if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
			kinds := bc.resultTaints(call, taint)
			for i, lhs := range n.Lhs {
				k := taintNone
				if i < len(kinds) {
					k = kinds[i]
				}
				bc.assignOne(n, lhs, k, taint)
			}
			return
		}
	}
	if len(n.Lhs) != len(n.Rhs) {
		return
	}
	for i, lhs := range n.Lhs {
		bc.assignOne(n, lhs, bc.exprTaint(n.Rhs[i], taint), taint)
	}
}

// assignOne applies one (lhs, taint-of-rhs) pair.
func (bc *borrowChecker) assignOne(n *ast.AssignStmt, lhs ast.Expr, k taintKind, taint map[types.Object]taintKind) {
	info := bc.pass.Info
	lhs = ast.Unparen(lhs)
	if id, ok := lhs.(*ast.Ident); ok {
		if id.Name == "_" {
			return
		}
		obj := identObj(info, id)
		if obj == nil {
			return
		}
		if isPackageLevel(obj) && k != taintNone {
			bc.pass.Reportf(n.Pos(),
				"%s stored to package-level %s; it escapes the borrow window", k, id.Name)
			return
		}
		if k != taintNone {
			taint[obj] = k
		} else {
			delete(taint, obj) // overwritten with owned data
		}
		return
	}
	// Non-identifier destination: field, map element, dereference, slice
	// element. Storing borrowed data there escapes the window; storing
	// owned data into a borrowed entry's Data is the sanctioned copy-out
	// and clears the entry's taint.
	if k == taintNone {
		if sel, ok := lhs.(*ast.SelectorExpr); ok && sel.Sel.Name == "Data" {
			if base, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
				if obj := identObj(info, base); obj != nil && taint[obj] == taintEntry {
					delete(taint, obj)
				}
			}
		}
		return
	}
	bc.pass.Reportf(n.Pos(),
		"%s stored to %s; it escapes the borrow window — copy it out first", k, exprDesc(lhs))
}

// rangeStmt taints loop variables when ranging over borrowed entries.
func (bc *borrowChecker) rangeStmt(n *ast.RangeStmt, taint map[types.Object]taintKind) {
	if bc.exprTaint(n.X, taint) != taintEntries || n.Value == nil {
		return
	}
	if id, ok := n.Value.(*ast.Ident); ok && id.Name != "_" {
		if obj := identObj(bc.pass.Info, id); obj != nil {
			taint[obj] = taintEntry
		}
	}
}

// call handles taint sources with pointer out-arguments, VisitRange
// callback seeding, and retaining-call sinks.
func (bc *borrowChecker) call(call *ast.CallExpr, taint map[types.Object]taintKind) {
	info := bc.pass.Info
	fn := calleeFunc(info, call)
	if fn != nil && strings.HasSuffix(funcPkgPath(fn), fsPkgSuffix) {
		switch fn.Name() {
		case "DecodeEntryInto":
			if len(call.Args) >= 1 {
				if obj := addrTarget(info, call.Args[0]); obj != nil {
					taint[obj] = taintEntry
				}
			}
			return
		case "VisitRange":
			if len(call.Args) >= 1 {
				if lit, ok := ast.Unparen(call.Args[len(call.Args)-1]).(*ast.FuncLit); ok {
					if params := lit.Type.Params; params != nil && len(params.List) > 0 && len(params.List[0].Names) > 0 {
						if obj := info.Defs[params.List[0].Names[0]]; obj != nil {
							bc.seeds[lit] = append(bc.seeds[lit], obj)
						}
					}
				}
			}
			return
		}
	}
	// Mailbox-style sinks: the callee retains its arguments beyond this
	// call, so the borrow window cannot cover them.
	name := calleeName(call)
	if retainingCalls[name] {
		for _, arg := range call.Args {
			if k := bc.exprTaint(arg, taint); k != taintNone {
				bc.pass.Reportf(arg.Pos(),
					"%s (%s) passed to %s, which retains it beyond the borrow window", k, exprDesc(arg), name)
			}
		}
	}
}

// checkCapture reports borrowed outer state referenced inside a nested
// function literal: the literal may run after the borrow window closes.
func (bc *borrowChecker) checkCapture(lit *ast.FuncLit, taint map[types.Object]taintKind) {
	info := bc.pass.Info
	reported := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if reported {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil {
			return true
		}
		if k, ok := taint[obj]; ok && k != taintNone {
			reported = true
			bc.pass.Reportf(id.Pos(),
				"%s %s captured by a function literal, which may run after the borrow window closes", k, id.Name)
		}
		return true
	})
}

// exprTaint computes the taint of an expression under the current state.
func (bc *borrowChecker) exprTaint(e ast.Expr, taint map[types.Object]taintKind) taintKind {
	info := bc.pass.Info
	switch v := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := identObj(info, v); obj != nil {
			return taint[obj]
		}
	case *ast.SelectorExpr:
		// e.Data aliases the buffer; scalar fields (Seq, Off) and owned
		// string fields (Name) are safe to extract.
		if v.Sel.Name == "Data" && bc.exprTaint(v.X, taint) == taintEntry {
			return taintBytes
		}
	case *ast.IndexExpr:
		if bc.exprTaint(v.X, taint) == taintEntries {
			return taintEntry
		}
	case *ast.SliceExpr:
		return bc.exprTaint(v.X, taint)
	case *ast.UnaryExpr:
		if v.Op == token.AND {
			return bc.exprTaint(v.X, taint)
		}
	case *ast.StarExpr:
		return bc.exprTaint(v.X, taint)
	case *ast.CompositeLit:
		for _, el := range v.Elts {
			x := el
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				x = kv.Value
			}
			if bc.exprTaint(x, taint) != taintNone {
				return classifyTaint(typeOf(info, e))
			}
		}
	case *ast.CallExpr:
		return bc.callTaint(v, taint)
	}
	return taintNone
}

// callTaint computes the taint of a call's (first) result: decode sources
// taint unconditionally; module-internal calls propagate taint from
// arguments into entry/byte-slice results (fs.Coalesce narrows a borrowed
// batch, it does not copy it); everything else — notably stdlib copies
// like string(b) and append(dst, b...) — is trusted to copy.
func (bc *borrowChecker) callTaint(call *ast.CallExpr, taint map[types.Object]taintKind) taintKind {
	kinds := bc.resultTaints(call, taint)
	if len(kinds) > 0 {
		return kinds[0]
	}
	return taintNone
}

// resultTaints computes the per-result taints of a call.
func (bc *borrowChecker) resultTaints(call *ast.CallExpr, taint map[types.Object]taintKind) []taintKind {
	info := bc.pass.Info

	// append: spreading borrowed bytes copies them; appending a borrowed
	// entry (or a borrowed base) keeps the alias.
	if isBuiltinCall(info, call, "append") && len(call.Args) > 0 {
		k := bc.exprTaint(call.Args[0], taint)
		for _, arg := range call.Args[1:] {
			ak := bc.exprTaint(arg, taint)
			if ak == taintNone {
				continue
			}
			if call.Ellipsis != token.NoPos && ak == taintBytes {
				continue // append(dst, borrowed...) copies the bytes
			}
			if ak == taintEntry {
				k = taintEntries
			} else if k == taintNone {
				k = ak
			}
		}
		return []taintKind{k}
	}

	fn := calleeFunc(info, call)
	if fn == nil {
		return nil
	}
	pkg := funcPkgPath(fn)
	if strings.HasSuffix(pkg, fsPkgSuffix) {
		switch fn.Name() {
		case "DecodeAll":
			return []taintKind{taintEntries}
		case "DecodeRangeScratch":
			// Result 0 borrows; result 1 is the caller's own scratch.
			return []taintKind{taintEntries, taintNone, taintNone}
		}
	}
	// Module-internal helpers propagate; anything outside the module is
	// trusted to copy what it returns.
	if !strings.HasPrefix(pkg, bc.pass.Pkg.Path()[:strings.Index(bc.pass.Pkg.Path()+"/", "/")]) {
		return nil
	}
	argTainted := false
	for _, arg := range call.Args {
		if bc.exprTaint(arg, taint) != taintNone {
			argTainted = true
			break
		}
	}
	if !argTainted {
		return nil
	}
	sig := funcSignature(fn)
	if sig == nil {
		return nil
	}
	kinds := make([]taintKind, sig.Results().Len())
	for i := range kinds {
		kinds[i] = classifyTaint(sig.Results().At(i).Type())
	}
	return kinds
}

// classifyTaint maps a type to the taint kind borrowed data of that type
// carries: entries, entry pointers, and byte slices stay tainted; scalars
// and owned strings do not.
func classifyTaint(t types.Type) taintKind {
	switch {
	case t == nil:
		return taintNone
	case isEntrySliceType(t):
		return taintEntries
	case isEntryType(t):
		return taintEntry
	case isByteSlice(t):
		return taintBytes
	}
	return taintNone
}

// addrTarget resolves &x or an *Entry-typed identifier to its object.
func addrTarget(info *types.Info, e ast.Expr) types.Object {
	switch v := ast.Unparen(e).(type) {
	case *ast.UnaryExpr:
		if v.Op == token.AND {
			if id, ok := ast.Unparen(v.X).(*ast.Ident); ok {
				return identObj(info, id)
			}
		}
	case *ast.Ident:
		return identObj(info, v)
	}
	return nil
}

// calleeName returns the syntactic name a call invokes ("Send" for both
// q.Send(...) and Send(...)), resolving nothing: the mailbox sink matches
// by name so stub types in tests and future mailbox types all count.
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// isPackageLevel reports whether obj is declared at package scope.
func isPackageLevel(obj types.Object) bool {
	return obj.Parent() != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
}

// typeOf returns the static type of e, or nil.
func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}
