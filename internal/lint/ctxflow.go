package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CtxFlow mechanizes the cooperative-cancellation discipline PR 1
// threaded through the engine: inside the packages that run supersteps,
// exchanges, partition loops and control planes (internal/bsp,
// internal/transport, internal/cluster, internal/partition),
//
//  1. context.Background() / context.TODO() must not be called — a
//     library function that mints its own root context is opting out of
//     the caller's cancellation. The one sanctioned idiom is the
//     documented nil-fallback `if ctx == nil { ctx = context.Background() }`
//     at an entry point that accepts a caller context. The ctx-less
//     compatibility wrappers (bsp.Run and the legacy Partition methods of
//     Fennel, HDRF and Hybrid) carry //ebv:nolint annotations: they are
//     the deliberate, documented exceptions.
//  2. exported functions shaped like unbounded loops — a `for {}`
//     without condition, a select inside a loop, or a net.Listener
//     Accept loop — must take a context.Context (or belong to a type
//     that stores one, like cluster.Coordinator). Transport Exchange
//     implementations, whose cancellation contract is Close() by design,
//     are annotated exceptions.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "cooperative cancellation: no context.Background/TODO in engine packages; looping exported APIs must take a context",
	Run:  runCtxFlow,
}

var ctxFlowScope = []string{
	"ebv/internal/bsp",
	"ebv/internal/transport",
	"ebv/internal/cluster",
	"ebv/internal/partition",
	"ebv/internal/serve",
	"ebv/internal/live",
}

func runCtxFlow(pass *Pass) error {
	if !scopedTo(pass.Pkg, "ctxflow", ctxFlowScope...) || pass.Pkg.Name == "main" {
		return nil
	}
	info := pass.Pkg.TypesInfo
	inspectStack(pass.Pkg.Files, func(n ast.Node, stack []ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			if isPkgFunc(info, x, "context", "Background", "TODO") && !isNilCtxFallback(info, x, stack) {
				pass.Reportf(x.Pos(),
					"%s mints a root context in library code: accept a context.Context from the caller (the nil-fallback `if ctx == nil` idiom is the only exception)",
					calleeName(x))
			}
		case *ast.FuncDecl:
			checkLoopingExported(pass, x)
		}
		return true
	})
	return nil
}

// isNilCtxFallback matches `if ctx == nil { ctx = context.Background() }`:
// the call is the sole RHS of an assignment to a context variable, inside
// an if whose condition compares that same variable to nil.
func isNilCtxFallback(info *types.Info, call *ast.CallExpr, stack []ast.Node) bool {
	var assign *ast.AssignStmt
	var ifStmt *ast.IfStmt
	for i := len(stack) - 1; i >= 0 && (assign == nil || ifStmt == nil); i-- {
		switch n := stack[i].(type) {
		case *ast.AssignStmt:
			if assign == nil {
				assign = n
			}
		case *ast.IfStmt:
			if ifStmt == nil {
				ifStmt = n
			}
		case *ast.FuncDecl, *ast.FuncLit:
			i = -1 // don't look past the enclosing function
		}
	}
	if assign == nil || ifStmt == nil || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return false
	}
	if ast.Unparen(assign.Rhs[0]) != ast.Expr(call) || assign.Tok != token.ASSIGN {
		return false
	}
	lhs, ok := ast.Unparen(assign.Lhs[0]).(*ast.Ident)
	if !ok {
		return false
	}
	tgt := info.Uses[lhs]
	if tgt == nil || !isContextType(tgt.Type()) {
		return false
	}
	cond, ok := ast.Unparen(ifStmt.Cond).(*ast.BinaryExpr)
	if !ok || cond.Op != token.EQL {
		return false
	}
	for _, side := range []ast.Expr{cond.X, cond.Y} {
		if id, ok := ast.Unparen(side).(*ast.Ident); ok && info.Uses[id] == tgt {
			return true
		}
	}
	return false
}

// checkLoopingExported flags exported functions with unbounded-loop
// shapes that neither take nor hold a context.
func checkLoopingExported(pass *Pass, fd *ast.FuncDecl) {
	if fd.Body == nil || !fd.Name.IsExported() {
		return
	}
	info := pass.Pkg.TypesInfo
	if funcTakesContext(info, fd) || receiverHoldsContext(info, fd) {
		return
	}
	why := unboundedLoopShape(info, fd.Body)
	if why == "" {
		return
	}
	pass.Reportf(fd.Name.Pos(),
		"exported %s %s but takes no context.Context: long-running loops must be cancellable (PR 1's cooperative-cancellation contract)",
		fd.Name.Name, why)
}

func funcTakesContext(info *types.Info, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, field := range fd.Type.Params.List {
		if t := info.TypeOf(field.Type); t != nil && isContextType(t) {
			return true
		}
	}
	return false
}

// receiverHoldsContext reports whether the method's receiver type has a
// context.Context field — the long-lived-object pattern
// (cluster.Coordinator derives its lifecycle context from the caller's).
func receiverHoldsContext(info *types.Info, fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return false
	}
	t := info.TypeOf(fd.Recv.List[0].Type)
	if t == nil {
		return false
	}
	st, ok := deref(t).Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if isContextType(st.Field(i).Type()) {
			return true
		}
	}
	return false
}

// unboundedLoopShape reports the first unbounded-loop shape in body.
func unboundedLoopShape(info *types.Info, body *ast.BlockStmt) string {
	var why string
	var loopDepth int
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		if why != "" {
			return false
		}
		switch x := n.(type) {
		case *ast.FuncLit:
			return false // its own frame; goroutine bodies are the caller's problem
		case *ast.ForStmt:
			if x.Cond == nil && x.Init == nil && x.Post == nil {
				why = "contains an unconditional for {} loop"
				return false
			}
			loopDepth++
			ast.Inspect(x.Body, walk)
			loopDepth--
			return false
		case *ast.RangeStmt:
			loopDepth++
			ast.Inspect(x.Body, walk)
			loopDepth--
			return false
		case *ast.SelectStmt:
			if loopDepth > 0 {
				why = "selects inside a loop"
				return false
			}
		case *ast.CallExpr:
			if loopDepth > 0 && calleeName(x) == "Accept" {
				if rt := recvType(info, x); rt != nil && namedIn(rt, "net", "TCPListener") || rt != nil && isNetListener(rt) {
					why = "runs an accept loop"
					return false
				}
			}
		}
		return true
	}
	ast.Inspect(body, walk)
	return why
}

// isNetListener reports whether t is net.Listener or implements it.
func isNetListener(t types.Type) bool {
	return namedIn(t, "net", "Listener") || namedIn(t, "net", "TCPListener")
}
