// Package atomicgen enforces the discipline around sync/atomic struct
// fields, above all the schema generation counter (`sqldb.DB.gen`) that
// cursors poll lock-free.
//
// Three rules:
//
//  1. A registered generation counter may only be mutated inside its
//     accessor method (`bumpSchemaGen`); every other
//     Store/Add/Swap/CompareAndSwap is reported.
//  2. Any atomic field may only be mutated from its declaring package —
//     cross-package writes bypass whatever protocol the owner maintains.
//  3. An atomic field must not be copied, compared or address-escaped as a
//     plain value; only its own methods may touch it.
package atomicgen

import (
	"go/ast"
	"strings"

	"genmapper/internal/lint/analysis"
	"genmapper/internal/lint/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "atomicgen",
	Doc:  "restricts mutation of atomic generation counters to their accessor methods",
	Run:  run,
}

// accessors maps a registered atomic field to the only function allowed to
// mutate it.
var accessors = map[string]string{
	"genmapper/internal/sqldb.DB.gen": "bumpSchemaGen",
}

// mutators are the sync/atomic methods that write.
var mutators = map[string]bool{
	"Store": true, "Add": true, "Swap": true,
	"CompareAndSwap": true, "And": true, "Or": true,
}

func run(pass *analysis.Pass) (any, error) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, fn)
		}
	}
	return nil, nil
}

func checkFunc(pass *analysis.Pass, fn *ast.FuncDecl) {
	lintutil.WalkStack(fn.Body, func(n ast.Node, stack []ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		key, isField := lintutil.FieldKey(pass.TypesInfo, sel)
		if !isField || !isAtomicField(pass, sel) {
			return true
		}
		short := key[strings.LastIndex(key, "/")+1:]
		switch use := useOf(sel, stack); use {
		case useMethodCall:
			method := methodName(stack)
			if !mutators[method] {
				return false // Load etc: always fine
			}
			if accessor, registered := accessors[key]; registered && fn.Name.Name != accessor {
				pass.Reportf(sel.Pos(), "%s is mutated outside its accessor %s; generation bumps must go through the accessor so schema changes stay totally ordered", short, accessor)
			} else if !registered && !declaredHere(pass, key) {
				pass.Reportf(sel.Pos(), "atomic field %s is mutated outside its declaring package", short)
			}
			return false
		case useAddr:
			pass.Reportf(sel.Pos(), "address of atomic field %s escapes; all access must go through its atomic methods", short)
			return false
		case useValue:
			pass.Reportf(sel.Pos(), "atomic field %s is used as a plain value; use its Load/Store methods", short)
			return false
		}
		return true
	})
}

type use int

const (
	useMethodCall use = iota // sel.Method(...)
	useAddr                  // &sel
	useValue                 // anything else: copy, compare, plain assign
)

// useOf classifies how the field selector is consumed by its parents.
func useOf(sel *ast.SelectorExpr, stack []ast.Node) use {
	if len(stack) == 0 {
		return useValue
	}
	switch p := stack[len(stack)-1].(type) {
	case *ast.SelectorExpr:
		// sel.Something — a method call like gen.Load() if the grandparent
		// is a call on that selector.
		if p.X == ast.Expr(sel) && len(stack) >= 2 {
			if call, ok := stack[len(stack)-2].(*ast.CallExpr); ok && call.Fun == ast.Expr(p) {
				return useMethodCall
			}
		}
		return useValue
	case *ast.UnaryExpr:
		if p.Op.String() == "&" {
			return useAddr
		}
	}
	return useValue
}

// methodName extracts the method identifier from a useMethodCall stack.
func methodName(stack []ast.Node) string {
	p := stack[len(stack)-1].(*ast.SelectorExpr)
	return p.Sel.Name
}

// declaredHere reports whether the field's owning type lives in the package
// being analyzed.
func declaredHere(pass *analysis.Pass, key string) bool {
	return strings.HasPrefix(key, pass.Pkg.Path()+".")
}

// isAtomicField reports whether the selector selects a field whose type is
// declared in sync/atomic.
func isAtomicField(pass *analysis.Pass, sel *ast.SelectorExpr) bool {
	t := lintutil.FieldType(pass.TypesInfo, sel)
	if t == nil {
		return false
	}
	nk := lintutil.NamedKey(t)
	return strings.HasPrefix(nk, "sync/atomic.")
}
