// Package hotpath implements the gscope-vet analyzer enforcing the
// repo's "0 allocs/op steady state" contract mechanically.
//
// A function marked `//gscope:hotpath` — Probe.RecordAt, the Feed batch
// pushes, the wire encoders — must be free of per-call allocating
// constructs, and everything it statically calls within the module must
// itself be marked (and is therefore checked the same way). The
// benchmark gates in CI catch a regression after it lands on the hot
// path; this analyzer points at the exact construct before the benchmark
// ever runs.
//
// Flagged inside a hotpath function:
//
//   - make/new and slice, map, or chan composite literals
//   - address-taken composite literals (&T{...} escapes)
//   - string concatenation and string<->[]byte/[]rune conversions, except
//     string(b) used directly as a map index, which the compiler looks up
//     without copying
//   - boxing a concrete value into an interface (call arguments,
//     returns, assignments) and variadic argument slices
//   - closures that capture variables, method values, go statements
//   - calls to module functions not marked //gscope:hotpath
//   - dynamic calls (func values, interface methods)
//   - calls into stdlib packages off the allowlist (fmt, log, time.Now
//     and friends are the canonical offenders), or to known-allocating
//     functions inside allowlisted packages (strings.Clone, errors.New)
//
// Amortized growth is legal: append and the strconv/binary Append*
// encoders write into retained buffers, which is exactly how the probe
// rings and wire encoders achieve steady-state zero. Deliberate cold
// paths inside a hot function (error returns, once-per-name dictionary
// growth) carry a `//gscope:allow hotpath <reason>` suppression.
package hotpath

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/vet"
)

// Analyzer is the hotpath analyzer.
var Analyzer = &vet.Analyzer{
	Name: "hotpath",
	Doc:  "functions marked //gscope:hotpath must not contain per-call allocating constructs, and module functions they call must be marked too",
	Run:  run,
}

// allowedPkgs are stdlib packages whose functions are, with the listed
// exceptions, allocation-free and legal on the hot path.
var allowedPkgs = map[string]bool{
	"sync":            true,
	"sync/atomic":     true,
	"math":            true,
	"math/bits":       true,
	"strconv":         true,
	"encoding/binary": true,
	"bytes":           true,
	"strings":         true,
	"unicode":         true,
	"unicode/utf8":    true,
	"errors":          true,
	"sort":            true,
	"unsafe":          true,
}

// bannedFuncs are known-allocating functions inside otherwise allowed
// packages. Key is "pkgpath.Name" for package functions.
var bannedFuncs = map[string]string{
	"strings.Clone":         "allocates a copy",
	"strings.Map":           "allocates the mapped string",
	"strings.Repeat":        "allocates",
	"strings.Join":          "allocates",
	"strings.Split":         "allocates",
	"strings.SplitN":        "allocates",
	"strings.SplitAfter":    "allocates",
	"strings.Fields":        "allocates",
	"strings.Replace":       "allocates",
	"strings.ReplaceAll":    "allocates",
	"strings.ToUpper":       "allocates",
	"strings.ToLower":       "allocates",
	"bytes.Clone":           "allocates a copy",
	"bytes.Join":            "allocates",
	"bytes.Repeat":          "allocates",
	"bytes.Split":           "allocates",
	"bytes.SplitN":          "allocates",
	"bytes.Fields":          "allocates",
	"bytes.Map":             "allocates",
	"errors.New":            "allocates an error",
	"errors.Join":           "allocates an error",
	"strconv.FormatInt":     "allocates; use strconv.AppendInt",
	"strconv.FormatFloat":   "allocates; use strconv.AppendFloat",
	"strconv.Itoa":          "allocates; use strconv.AppendInt",
	"strconv.Quote":         "allocates",
	"encoding/binary.Read":  "reflects and allocates",
	"encoding/binary.Write": "reflects and allocates",
}

func run(pass *vet.Pass) error {
	for fd, fn := range vet.EnclosingFuncs(pass.Files, pass.TypesInfo) {
		if pass.Module.Hotpath[vet.FuncKey(fn)] {
			check(pass, fd)
		}
	}
	return nil
}

// check walks one hotpath function body.
func check(pass *vet.Pass, fd *ast.FuncDecl) {
	c := &checker{pass: pass, info: pass.TypesInfo, fd: fd}
	// Mark expressions used as call targets so `x.M()` is not also
	// reported as a method value, and conversions used as the key of a
	// map read (m[string(b)] looks b up without copying it; a store
	// copies the key).
	c.callFuns = make(map[ast.Expr]bool)
	c.mapKeys = make(map[ast.Expr]bool)
	stores := make(map[ast.Expr]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			c.callFuns[ast.Unparen(n.Fun)] = true
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				stores[ast.Unparen(lhs)] = true
			}
		case *ast.IncDecStmt:
			stores[ast.Unparen(n.X)] = true
		case *ast.IndexExpr:
			if tv := c.info.Types[n.X]; tv.Type != nil && !stores[n] {
				if _, ok := tv.Type.Underlying().(*types.Map); ok {
					c.mapKeys[ast.Unparen(n.Index)] = true
				}
			}
		}
		return true
	})
	ast.Inspect(fd.Body, c.visit)
}

type checker struct {
	pass     *vet.Pass
	info     *types.Info
	fd       *ast.FuncDecl
	callFuns map[ast.Expr]bool
	mapKeys  map[ast.Expr]bool
}

func (c *checker) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.CallExpr:
		c.call(n)
	case *ast.CompositeLit:
		tv := c.info.Types[n]
		if tv.Type == nil {
			break
		}
		switch tv.Type.Underlying().(type) {
		case *types.Slice:
			c.pass.Reportf(n.Pos(), "slice literal allocates")
		case *types.Map:
			c.pass.Reportf(n.Pos(), "map literal allocates")
		case *types.Chan:
			c.pass.Reportf(n.Pos(), "channel literal allocates")
		}
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
				c.pass.Reportf(n.Pos(), "&composite literal escapes to the heap")
			}
		}
	case *ast.BinaryExpr:
		if n.Op == token.ADD {
			if tv := c.info.Types[n]; tv.Type != nil && isString(tv.Type) {
				c.pass.Reportf(n.Pos(), "string concatenation allocates")
			}
		}
	case *ast.FuncLit:
		if name, ok := c.captures(n); ok {
			c.pass.Reportf(n.Pos(), "closure captures %q and allocates", name)
		}
	case *ast.GoStmt:
		c.pass.Reportf(n.Pos(), "go statement allocates a goroutine")
	case *ast.SelectorExpr:
		// A method used as a value (not called) allocates its binding.
		if c.callFuns[n] {
			break
		}
		if sel, ok := c.info.Selections[n]; ok && sel.Kind() == types.MethodVal {
			c.pass.Reportf(n.Pos(), "method value %s allocates", n.Sel.Name)
		}
	case *ast.ReturnStmt:
		c.returns(n)
	case *ast.AssignStmt:
		c.assigns(n)
	}
	return true
}

// call checks one call expression: conversions, builtins, boxing at the
// call site, and the callee itself.
func (c *checker) call(call *ast.CallExpr) {
	if vet.IsConversion(c.info, call) {
		c.conversion(call)
		return
	}
	if b := vet.BuiltinName(c.info, call); b != "" {
		switch b {
		case "make":
			c.pass.Reportf(call.Pos(), "make allocates")
		case "new":
			c.pass.Reportf(call.Pos(), "new allocates")
		}
		// append is explicitly legal: growth into a retained buffer is
		// amortized, the contract the benchmarks assert as "0 allocs/op
		// steady state".
		return
	}

	fn := vet.Callee(c.info, call)
	if fn == nil {
		c.pass.Reportf(call.Pos(), "dynamic call through a func value")
		return
	}
	if vet.IsInterfaceMethod(fn) {
		c.pass.Reportf(call.Pos(), "dynamic call through interface method %s", fn.Name())
		return
	}

	c.boxing(call, fn)

	path := vet.PkgPath(fn)
	switch {
	case path == "" || path == c.pass.Pkg.Path() || c.pass.Module.Internal[path]:
		if !c.pass.Module.Hotpath[vet.FuncKey(fn)] {
			c.pass.Reportf(call.Pos(), "call to %s, which is not marked //gscope:hotpath", fn.Name())
		}
	case path == "time":
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil {
			c.pass.Reportf(call.Pos(), "time.%s on the hot path — take timestamps from the caller instead", fn.Name())
		}
	case strings.HasPrefix(path, "fmt"):
		c.pass.Reportf(call.Pos(), "fmt.%s allocates and reflects", fn.Name())
	case path == "log" || strings.HasPrefix(path, "log/"):
		c.pass.Reportf(call.Pos(), "log call on the hot path")
	case !allowedPkgs[path]:
		c.pass.Reportf(call.Pos(), "call into %s, which is not on the hot-path allowlist", path)
	default:
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil {
			if why, bad := bannedFuncs[path+"."+fn.Name()]; bad {
				c.pass.Reportf(call.Pos(), "%s.%s %s", path, fn.Name(), why)
			}
		}
	}
}

// conversion flags string conversions, which copy.
func (c *checker) conversion(call *ast.CallExpr) {
	if len(call.Args) != 1 {
		return
	}
	dst := c.info.Types[ast.Unparen(call.Fun)].Type
	src := c.info.Types[call.Args[0]].Type
	if dst == nil || src == nil {
		return
	}
	switch {
	case isString(dst) && !isString(src):
		if c.mapKeys[call] {
			return
		}
		c.pass.Reportf(call.Pos(), "conversion to string allocates")
	case isByteOrRuneSlice(dst) && isString(src):
		c.pass.Reportf(call.Pos(), "conversion from string allocates")
	}
}

// boxing flags concrete-to-interface argument conversions and variadic
// argument slices.
func (c *checker) boxing(call *ast.CallExpr, fn *types.Func) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				pt = params.At(params.Len() - 1).Type()
			} else {
				if sl, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
					pt = sl.Elem()
				}
				if i == params.Len()-1 {
					c.pass.Reportf(call.Pos(), "variadic call to %s allocates the argument slice", fn.Name())
				}
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		c.boxCheck(pt, arg)
	}
}

// returns flags boxing at return statements.
func (c *checker) returns(ret *ast.ReturnStmt) {
	fn, ok := c.info.Defs[c.fd.Name].(*types.Func)
	if !ok {
		return
	}
	res := fn.Type().(*types.Signature).Results()
	if res.Len() != len(ret.Results) {
		return
	}
	for i, r := range ret.Results {
		c.boxCheck(res.At(i).Type(), r)
	}
}

// assigns flags boxing at assignments to interface-typed destinations.
func (c *checker) assigns(as *ast.AssignStmt) {
	if as.Tok != token.ASSIGN || len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		lt := c.info.Types[lhs].Type
		c.boxCheck(lt, as.Rhs[i])
	}
}

// boxCheck reports when a concrete-typed expression converts to an
// interface destination.
func (c *checker) boxCheck(dst types.Type, src ast.Expr) {
	if dst == nil || !types.IsInterface(dst) {
		return
	}
	if _, ok := dst.(*types.TypeParam); ok {
		return // a type argument is instantiated, not boxed
	}
	tv, ok := c.info.Types[src]
	if !ok || tv.Type == nil || tv.IsNil() || types.IsInterface(tv.Type) {
		return
	}
	c.pass.Reportf(src.Pos(), "%s boxes into %s and allocates", tv.Type, dst)
}

// captures reports the first variable a func literal captures from its
// enclosing function. Capture-free literals compile to static functions
// and are allocation-free.
func (c *checker) captures(lit *ast.FuncLit) (string, bool) {
	var name string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := c.info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Package-level variables are not captures.
		if v.Pkg() != nil && v.Pkg().Scope() == scopeOf(v) {
			return true
		}
		// Declared outside the literal's extent → captured.
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			name = v.Name()
			return false
		}
		return true
	})
	return name, name != ""
}

func scopeOf(v *types.Var) *types.Scope {
	if v.Parent() != nil {
		return v.Parent()
	}
	return nil
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}
