package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotAlloc enforces the allocation half of the memory contract (DESIGN.md
// §10): functions annotated //linefs:hotpath — the per-entry data-plane
// codecs — must be allocation-free in steady state. The analyzer scans each
// annotated function and, transitively, every same-package function it
// statically calls (to a bounded depth), reporting:
//
//   - make / new
//   - allocating composite literals (&T{...}, slice and map literals)
//   - append that grows an unrelated buffer (self-append x = append(x, ...)
//     is the amortized idiom and exempt)
//   - string([]byte) / []byte(string) conversions
//   - explicit conversions to interface types (boxing)
//   - function literals (closure allocation)
//   - fmt.* calls
//
// Exemptions encode the steady-state argument:
//
//   - make/append under a cap()- or nil-guard if (amortized one-time grow),
//     and in functions with a cap-guard early return (grow helpers)
//   - calls made under such a guard are not followed (one-time init)
//   - fmt.Errorf directly in a return statement, and anything inside
//     panic(...) arguments — error and crash paths are cold by definition
//   - function literals passed to stdlib sort/slices/bytes/strings calls
//     (they do not escape; the stdlib calls them inline)
//
// Cross-package calls within the module must target functions that carry
// //linefs:hotpath themselves — the callee's own package pass scans its
// body, making the check compositional. The simulation kernel is exempt:
// hot paths may not call into virtual-time accounting at all, and when they
// legitimately sit next to it the cost calls live in the (unannotated)
// caller.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "forbid allocation in //linefs:hotpath functions and their module callees",
	Run:  runHotAlloc,
}

// hotpathDirective is the annotation grammar: the directive comment, alone
// on its line, in the function's doc group.
const hotpathDirective = "//linefs:hotpath"

// hotallocMaxDepth bounds the transitive same-package scan.
const hotallocMaxDepth = 6

func runHotAlloc(pass *Pass) {
	ha := &hotAllocChecker{
		pass:  pass,
		decls: funcDecls(pass), // for the transitive walk
		deps:  make(map[string]*Package),
	}
	var roots []*ast.FuncDecl // in source order
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil && hasHotpathDirective(fd) {
				roots = append(roots, fd)
			}
		}
	}
	visited := make(map[*ast.FuncDecl]bool)
	for _, root := range roots {
		ha.scan(root, root.Name.Name, 0, visited)
	}
}

type hotAllocChecker struct {
	pass  *Pass
	decls map[types.Object]*ast.FuncDecl
	deps  map[string]*Package
}

// hasHotpathDirective reports whether a function declaration carries the
// //linefs:hotpath annotation in its doc comment.
func hasHotpathDirective(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(c.Text) == hotpathDirective {
			return true
		}
	}
	return false
}

// scan reports allocation sites in one function body and recurses into
// same-package static callees.
func (ha *hotAllocChecker) scan(fd *ast.FuncDecl, root string, depth int, visited map[*ast.FuncDecl]bool) {
	if visited[fd] || depth > hotallocMaxDepth {
		return
	}
	visited[fd] = true
	s := &hotScan{ha: ha, fd: fd, root: root, info: ha.pass.Info}
	s.guards = collectGuardRanges(fd.Body)
	s.coldRanges = collectColdRanges(fd.Body, ha.pass.Info)
	s.aliases = collectAliases(fd.Body, ha.pass.Info)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		return s.visit(n, depth, visited)
	})
}

// posRange is a half-open source span.
type posRange struct{ lo, hi int }

func (r posRange) contains(p int) bool { return p >= r.lo && p < r.hi }

func inRanges(rs []posRange, p int) bool {
	for _, r := range rs {
		if r.contains(p) {
			return true
		}
	}
	return false
}

// collectGuardRanges finds the amortization guards: bodies of if statements
// whose condition tests cap(...) or compares against nil, plus — for the
// grow-helper shape, where a cap-guard if *returns early* and the
// allocation follows it — the remainder of the enclosing block after such
// an if. Only a cap guard exempts the remainder: a nil test that returns
// early (`if c.P == nil { …; return }`) picks a path, it does not amortize
// the one that follows.
func collectGuardRanges(body *ast.BlockStmt) []posRange {
	var out []posRange
	ast.Inspect(body, func(n ast.Node) bool {
		blk, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		for i, st := range blk.List {
			ifs, ok := st.(*ast.IfStmt)
			if !ok || !isAmortGuardCond(ifs.Cond) {
				continue
			}
			out = append(out, posRange{int(ifs.Body.Pos()), int(ifs.Body.End())})
			if endsInReturn(ifs.Body) && i+1 < len(blk.List) && mentionsCap(ifs.Cond) {
				out = append(out, posRange{int(blk.List[i+1].Pos()), int(blk.End())})
			}
		}
		return true
	})
	return out
}

// isAmortGuardCond reports whether an if condition is an amortization
// guard: it mentions cap(...), len-vs-cap, or a nil comparison.
func isAmortGuardCond(cond ast.Expr) bool {
	return mentionsCap(cond) || mentionsIdent(cond, "nil")
}

// mentionsCap reports whether an expression calls cap(...).
func mentionsCap(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "cap" {
				found = true
			}
		}
		return !found
	})
	return found
}

// mentionsIdent reports whether an expression names the identifier name.
func mentionsIdent(e ast.Expr, name string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			found = true
		}
		return !found
	})
	return found
}

// endsInReturn reports whether a block's last statement is a return.
func endsInReturn(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	_, ok := b.List[len(b.List)-1].(*ast.ReturnStmt)
	return ok
}

// collectColdRanges finds the cold spans where allocation is acceptable:
// panic(...) argument lists, and fmt.Errorf calls appearing directly in
// return results.
func collectColdRanges(body *ast.BlockStmt, info *types.Info) []posRange {
	var out []posRange
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.CallExpr:
			if isBuiltinCall(info, v, "panic") {
				out = append(out, posRange{int(v.Lparen), int(v.Rparen) + 1})
			}
		case *ast.ReturnStmt:
			for _, res := range v.Results {
				if call, ok := ast.Unparen(res).(*ast.CallExpr); ok && isFmtErrorf(info, call) {
					out = append(out, posRange{int(call.Pos()), int(call.End())})
				}
			}
		}
		return true
	})
	return out
}

// isFmtErrorf reports whether a call is fmt.Errorf.
func isFmtErrorf(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	return fn != nil && funcPkgPath(fn) == "fmt" && fn.Name() == "Errorf"
}

// collectAliases maps local variables initialized from a variable/field
// chain to that chain (`d := pm.dirty`), so the self-append rule can see
// through the alias: `pm.dirty = append(d[:i], ...)` amortizes pm.dirty.
func collectAliases(body *ast.BlockStmt, info *types.Info) map[types.Object]ast.Expr {
	out := make(map[types.Object]ast.Expr)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := identObj(info, id)
			if obj == nil {
				continue
			}
			rhs := stripSliceParen(ast.Unparen(as.Rhs[i]))
			switch rhs.(type) {
			case *ast.SelectorExpr, *ast.Ident:
				out[obj] = rhs
			}
		}
		return true
	})
	return out
}

// hotScan is the per-function state of one hotalloc scan.
type hotScan struct {
	ha         *hotAllocChecker
	fd         *ast.FuncDecl
	root       string
	info       *types.Info
	guards     []posRange
	coldRanges []posRange
	aliases    map[types.Object]ast.Expr
}

func (s *hotScan) exempt(p int) bool {
	return inRanges(s.coldRanges, p)
}

func (s *hotScan) guarded(p int) bool {
	return inRanges(s.guards, p)
}

// via renders the attribution suffix for diagnostics.
func (s *hotScan) via() string {
	if s.fd.Name.Name == s.root {
		return ""
	}
	return " (reached from //linefs:hotpath " + s.root + ")"
}

func (s *hotScan) visit(n ast.Node, depth int, visited map[*ast.FuncDecl]bool) bool {
	switch v := n.(type) {
	case *ast.FuncLit:
		if s.litIsInlineCallback(v) {
			return false // stdlib sort/search callbacks run inline
		}
		if !s.exempt(int(v.Pos())) {
			s.ha.pass.Reportf(v.Pos(), "function literal allocates a closure in hot path%s", s.via())
		}
		return false
	case *ast.UnaryExpr:
		if v.Op == token.AND {
			if _, ok := ast.Unparen(v.X).(*ast.CompositeLit); ok {
				if !s.exempt(int(v.Pos())) && !s.guarded(int(v.Pos())) {
					s.ha.pass.Reportf(v.Pos(), "address of composite literal allocates in hot path%s", s.via())
				}
				return false
			}
		}
		return true
	case *ast.CompositeLit:
		s.compositeLit(v)
		return true
	case *ast.CallExpr:
		return s.call(v, depth, visited)
	}
	return true
}

// litIsInlineCallback reports whether a function literal is an argument to
// a stdlib sort/slices/bytes/strings call, which invokes it without
// retaining it.
func (s *hotScan) litIsInlineCallback(lit *ast.FuncLit) bool {
	for _, f := range s.ha.pass.Files {
		if !(f.Pos() <= lit.Pos() && lit.Pos() < f.End()) {
			continue
		}
		found := false
		ast.Inspect(f, func(n ast.Node) bool {
			if found {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, arg := range call.Args {
				if ast.Unparen(arg) != lit {
					continue
				}
				fn := calleeFunc(s.info, call)
				switch funcPkgPath(fn) {
				case "sort", "slices", "bytes", "strings":
					found = true
				}
				return false
			}
			return true
		})
		return found
	}
	return false
}

// compositeLit flags heap-bound composite literals: slices, maps, and any
// literal whose address is taken. Plain value struct literals stay on the
// stack and pass.
func (s *hotScan) compositeLit(lit *ast.CompositeLit) {
	if s.exempt(int(lit.Pos())) || s.guarded(int(lit.Pos())) {
		return
	}
	t := typeOf(s.info, lit)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map:
		s.ha.pass.Reportf(lit.Pos(), "composite literal allocates in hot path%s", s.via())
	}
}

// call handles builtins, conversions, fmt, and the transitive walk.
func (s *hotScan) call(call *ast.CallExpr, depth int, visited map[*ast.FuncDecl]bool) bool {
	p := int(call.Pos())
	switch {
	case isBuiltinCall(s.info, call, "make"), isBuiltinCall(s.info, call, "new"):
		if !s.exempt(p) && !s.guarded(p) {
			s.ha.pass.Reportf(call.Pos(), "%s allocates in hot path%s — reuse a scratch buffer", exprDesc(call.Fun), s.via())
		}
		return true
	case isBuiltinCall(s.info, call, "append"):
		if !s.exempt(p) && !s.guarded(p) && !s.selfAppend(call) {
			s.ha.pass.Reportf(call.Pos(), "append may grow in hot path%s — pre-size or store the result back into its base", s.via())
		}
		return true
	case isBuiltinCall(s.info, call, "panic"):
		return true // args covered by coldRanges
	}

	// Conversions: string <-> []byte and boxing into interfaces.
	if tv, ok := s.info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if s.exempt(p) {
			return true
		}
		dst := tv.Type
		src := typeOf(s.info, call.Args[0])
		switch {
		case isStringType(dst) && isByteSlice(src):
			s.ha.pass.Reportf(call.Pos(), "string([]byte) conversion copies in hot path%s", s.via())
		case isByteSlice(dst) && isStringType(src):
			s.ha.pass.Reportf(call.Pos(), "[]byte(string) conversion copies in hot path%s", s.via())
		case types.IsInterface(dst) && src != nil && !types.IsInterface(src):
			s.ha.pass.Reportf(call.Pos(), "conversion to interface boxes in hot path%s", s.via())
		}
		return true
	}

	fn := calleeFunc(s.info, call)
	if fn == nil {
		return true
	}
	pkg := funcPkgPath(fn)
	if pkg == "fmt" {
		if !s.exempt(p) {
			s.ha.pass.Reportf(call.Pos(), "fmt.%s allocates in hot path%s", fn.Name(), s.via())
		}
		return true
	}
	// Calls under an amortization guard are one-time init; don't follow.
	if s.guarded(p) {
		return true
	}
	if pkg == s.ha.pass.Pkg.Path() {
		if fd, ok := s.ha.decls[types.Object(fn)]; ok {
			s.ha.scan(fd, s.root, depth+1, visited)
		}
		return true
	}
	// Cross-package module calls must target annotated hot paths.
	if isModulePath(s.ha.pass.Pkg.Path(), pkg) && !strings.HasSuffix(pkg, "internal/sim") {
		if !s.ha.calleeAnnotated(pkg, fn) {
			s.ha.pass.Reportf(call.Pos(),
				"hot path%s calls %s.%s, which is not marked //linefs:hotpath — annotate it or move the call off the hot path",
				s.via(), pkg, fn.Name())
		}
	}
	return true
}

// selfAppend reports whether an append amortizes its own base: the result
// is stored back into the same chain as the first argument (directly or
// through a recorded alias).
func (s *hotScan) selfAppend(call *ast.CallExpr) bool {
	if len(call.Args) == 0 {
		return false
	}
	base := stripSliceParen(call.Args[0])
	// Resolve alias: d := pm.dirty makes d stand for pm.dirty.
	if id, ok := base.(*ast.Ident); ok {
		if obj := identObj(s.info, id); obj != nil {
			if chain, ok := s.aliases[obj]; ok {
				base = chain
			}
		}
	}
	found := false
	ast.Inspect(s.fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			if ast.Unparen(rhs) != call || i >= len(as.Lhs) {
				continue
			}
			dst := stripSliceParen(ast.Unparen(as.Lhs[i]))
			if id, ok := dst.(*ast.Ident); ok {
				if obj := identObj(s.info, id); obj != nil {
					if chain, ok := s.aliases[obj]; ok {
						dst = chain
					}
				}
			}
			if chainEqual(s.info, dst, base) {
				found = true
			}
			return false
		}
		return true
	})
	return found
}

// calleeAnnotated reports whether a cross-package function carries the
// //linefs:hotpath directive, loading the dependency's syntax on demand.
func (ha *hotAllocChecker) calleeAnnotated(pkgPath string, fn *types.Func) bool {
	dep, ok := ha.deps[pkgPath]
	if !ok {
		if ha.pass.Dep == nil {
			return true // no loader: cannot verify, stay quiet
		}
		var err error
		dep, err = ha.pass.Dep(pkgPath)
		if err != nil {
			dep = nil
		}
		ha.deps[pkgPath] = dep
	}
	if dep == nil {
		return true
	}
	recv := recvTypeName(fn)
	for _, f := range dep.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name != fn.Name() {
				continue
			}
			if recvDeclName(fd) != recv {
				continue
			}
			return hasHotpathDirective(fd)
		}
	}
	// Interface methods and generated functions have no declaration to
	// annotate; stay quiet rather than demand the impossible.
	return true
}

// recvTypeName returns the name of a method's receiver type, or "".
func recvTypeName(fn *types.Func) string {
	sig := funcSignature(fn)
	if sig == nil || sig.Recv() == nil {
		return ""
	}
	_, name := namedFrom(sig.Recv().Type())
	return name
}

// recvDeclName returns the receiver type name of a declaration, or "".
func recvDeclName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if st, ok := t.(*ast.StarExpr); ok {
		t = st.X
	}
	if ix, ok := t.(*ast.IndexExpr); ok { // generic receiver T[P]
		t = ix.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// isModulePath reports whether callee shares selfPath's module (first path
// segment) — "linefs/..." in the real module and the testdata stubs alike.
func isModulePath(selfPath, callee string) bool {
	root, _, _ := strings.Cut(selfPath, "/")
	return callee == root || strings.HasPrefix(callee, root+"/")
}

// isStringType reports whether t is a string type.
func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
