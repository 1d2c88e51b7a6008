// Package stickyerr implements the gscope-vet analyzer encoding
// docs/WIRE.md §B7 — the fail-closed clause for binary framing errors.
//
// tuple.ErrBadFrame means the frame boundaries are lost: nothing after
// it on the stream is decodable, so a consumer must stop (drop the
// connection, seal the scan at the decoded prefix). A bad TEXT line
// (tuple.ErrBadLine) resynchronizes at the next newline and is legal to
// skip; treating a frame error the same way silently decodes garbage.
//
// Flagged:
//
//   - comparing an error to ErrBadFrame with == or != (wrapped frame
//     errors escape the check; errors.Is is required)
//   - an errors.Is(err, ErrBadFrame) branch that continues a loop,
//     clears the error, is empty, or falls through to the next
//     iteration — anything but terminating the consuming path
//   - re-wrapping the tested error with fmt.Errorf without %w inside
//     such a branch, which strips the sticky identity
//   - discarding the error result of (*tuple.StreamDecoder).Feed or
//     FeedBytes, the calls that produce frame errors on the read paths
package stickyerr

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/vet"
)

// Analyzer is the stickyerr analyzer.
var Analyzer = &vet.Analyzer{
	Name: "stickyerr",
	Doc:  "tuple.ErrBadFrame is sticky fail-closed: never skipped, cleared, ==-compared, unwrapped-rewrapped, or dropped",
	Run:  run,
}

// tuplePkg is the package declaring the sticky sentinel.
const tuplePkg = "repro/internal/tuple"

// stickySources are functions whose error result carries ErrBadFrame
// and must never be discarded.
var stickySources = map[string]bool{
	"(*repro/internal/tuple.StreamDecoder).Feed":      true,
	"(*repro/internal/tuple.StreamDecoder).FeedBytes": true,
}

func run(pass *vet.Pass) error {
	c := &checker{pass: pass, info: pass.TypesInfo}
	for _, f := range pass.Files {
		ast.Inspect(f, c.visit)
	}
	return nil
}

type checker struct {
	pass *vet.Pass
	info *types.Info
	// loopDepth counts enclosing for/range statements during the walk.
	loops []ast.Node
}

func (c *checker) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.BinaryExpr:
		if (n.Op == token.EQL || n.Op == token.NEQ) &&
			(c.isBadFrame(n.X) || c.isBadFrame(n.Y)) {
			c.pass.Reportf(n.Pos(), "ErrBadFrame compared with %s — wrapped frame errors escape this; use errors.Is", n.Op)
		}
	case *ast.ExprStmt:
		if call, ok := n.X.(*ast.CallExpr); ok && c.isStickySource(call) {
			c.pass.Reportf(n.Pos(), "error result of %s dropped — frame errors are sticky fail-closed", calleeName(c.info, call))
		}
	case *ast.AssignStmt:
		c.blankedSticky(n)
	case *ast.IfStmt:
		c.ifStmt(n)
	}
	return true
}

// isBadFrame reports whether the expression denotes tuple.ErrBadFrame.
func (c *checker) isBadFrame(e ast.Expr) bool {
	var id *ast.Ident
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		id = e
	case *ast.SelectorExpr:
		id = e.Sel
	default:
		return false
	}
	v, ok := c.info.Uses[id].(*types.Var)
	return ok && v.Name() == "ErrBadFrame" && v.Pkg() != nil && v.Pkg().Path() == tuplePkg
}

func (c *checker) isStickySource(call *ast.CallExpr) bool {
	fn := vet.Callee(c.info, call)
	return fn != nil && stickySources[vet.FuncKey(fn)]
}

// blankedSticky flags `_ = dec.Feed(...)` and friends: every error
// position assigned to blank.
func (c *checker) blankedSticky(as *ast.AssignStmt) {
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok || !c.isStickySource(call) {
		return
	}
	for _, l := range as.Lhs {
		if id, ok := l.(*ast.Ident); !ok || id.Name != "_" {
			return
		}
	}
	c.pass.Reportf(as.Pos(), "error result of %s blanked — frame errors are sticky fail-closed", calleeName(c.info, call))
}

// ifStmt analyzes branches taken when an ErrBadFrame test succeeds.
func (c *checker) ifStmt(ifs *ast.IfStmt) {
	testedVar, positive := c.frameTest(ifs.Cond)
	if !positive {
		return
	}
	body := ifs.Body
	if len(body.List) == 0 {
		c.pass.Reportf(ifs.Pos(), "empty branch ignores ErrBadFrame — frame errors are sticky fail-closed")
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.ForStmt, *ast.RangeStmt:
			return false // continue inside these targets something else
		case *ast.BranchStmt:
			if n.Tok == token.CONTINUE {
				c.pass.Reportf(n.Pos(), "continue skips past ErrBadFrame — the stream is undecodable after a frame error")
			}
		case *ast.AssignStmt:
			if testedVar != nil && c.clearsErr(n, testedVar) {
				c.pass.Reportf(n.Pos(), "clearing the error on the ErrBadFrame path discards a sticky failure")
			}
		case *ast.CallExpr:
			if c.rewraps(n, testedVar) {
				c.pass.Reportf(n.Pos(), "fmt.Errorf without %%w strips the ErrBadFrame identity — downstream errors.Is checks go blind")
			}
		}
		return true
	})
	if !terminates(body) && c.inLoop(ifs) {
		c.pass.Reportf(ifs.Pos(), "ErrBadFrame branch falls through to the next iteration — frame errors are sticky fail-closed")
	}
}

// frameTest reports whether cond contains a non-negated ErrBadFrame
// test, and the error variable being tested, so `if errors.Is(err,
// ErrBadFrame) { ... }` and `if err == io.EOF || errors.Is(err,
// ErrBadFrame) { ... }` both resolve to the then-branch.
func (c *checker) frameTest(cond ast.Expr) (*types.Var, bool) {
	var errVar *types.Var
	found := false
	neg := false
	var walk func(e ast.Expr, negated bool)
	walk = func(e ast.Expr, negated bool) {
		switch e := ast.Unparen(e).(type) {
		case *ast.UnaryExpr:
			if e.Op == token.NOT {
				walk(e.X, !negated)
			}
		case *ast.BinaryExpr:
			switch e.Op {
			case token.LAND, token.LOR:
				walk(e.X, negated)
				walk(e.Y, negated)
			case token.EQL, token.NEQ:
				if c.isBadFrame(e.X) || c.isBadFrame(e.Y) {
					found = true
					neg = negated != (e.Op == token.NEQ)
				}
			}
		case *ast.CallExpr:
			fn := vet.Callee(c.info, e)
			if fn != nil && vet.PkgPath(fn) == "errors" && fn.Name() == "Is" && len(e.Args) == 2 && c.isBadFrame(e.Args[1]) {
				found = true
				neg = negated
				if id, ok := ast.Unparen(e.Args[0]).(*ast.Ident); ok {
					errVar, _ = c.info.Uses[id].(*types.Var)
				}
			}
		}
	}
	walk(cond, false)
	return errVar, found && !neg
}

// clearsErr reports err = nil for the tested variable.
func (c *checker) clearsErr(as *ast.AssignStmt, errVar *types.Var) bool {
	if as.Tok != token.ASSIGN || len(as.Lhs) != len(as.Rhs) {
		return false
	}
	for i, l := range as.Lhs {
		id, ok := ast.Unparen(l).(*ast.Ident)
		if !ok {
			continue
		}
		if v, _ := c.info.Uses[id].(*types.Var); v == errVar {
			if tv, ok := c.info.Types[as.Rhs[i]]; ok && tv.IsNil() {
				return true
			}
		}
	}
	return false
}

// rewraps flags fmt.Errorf calls in the branch that mention the tested
// error without a %w verb.
func (c *checker) rewraps(call *ast.CallExpr, errVar *types.Var) bool {
	fn := vet.Callee(c.info, call)
	if fn == nil || vet.PkgPath(fn) != "fmt" || fn.Name() != "Errorf" || len(call.Args) < 2 {
		return false
	}
	tv, ok := c.info.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return false
	}
	if strings.Contains(constant.StringVal(tv.Value), "%w") {
		return false
	}
	for _, a := range call.Args[1:] {
		t := c.info.Types[a].Type
		if t != nil && isErrorType(t) {
			if errVar == nil {
				return true
			}
			if id, ok := ast.Unparen(a).(*ast.Ident); ok {
				if v, _ := c.info.Uses[id].(*types.Var); v == errVar {
					return true
				}
			}
		}
	}
	return false
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}

// terminates reports whether a block definitely leaves the enclosing
// loop/function: its last statement is return, break, goto, or panic.
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		// continue is flagged separately; counting it as "leaving the
		// block" here avoids double-reporting the same branch.
		return last.Tok == token.BREAK || last.Tok == token.GOTO || last.Tok == token.CONTINUE
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		return terminates(last)
	case *ast.IfStmt:
		if last.Else == nil {
			return false
		}
		elseB, ok := last.Else.(*ast.BlockStmt)
		return ok && terminates(last.Body) && terminates(elseB)
	}
	return false
}

// inLoop reports whether the if statement sits inside a for/range body
// in the same function — found by re-walking the file, which is cheap at
// this scale.
func (c *checker) inLoop(target *ast.IfStmt) bool {
	in := false
	for _, f := range c.pass.Files {
		if f.Pos() <= target.Pos() && target.Pos() < f.End() {
			var depth int
			ast.Inspect(f, func(n ast.Node) bool {
				if n == nil {
					return false
				}
				switch n.(type) {
				case *ast.ForStmt, *ast.RangeStmt:
					if n.Pos() <= target.Pos() && target.Pos() < n.End() {
						depth++
					}
				}
				if n == ast.Node(target) {
					in = depth > 0
				}
				return true
			})
		}
	}
	return in
}

func calleeName(info *types.Info, call *ast.CallExpr) string {
	if fn := vet.Callee(info, call); fn != nil {
		return fn.Name()
	}
	return "call"
}
