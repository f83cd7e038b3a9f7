// Package partlock checks that row-map locks are released on every path
// out of the function that acquired them.
//
// Readers and the writer take Table.rowsMu around each row-map access. A
// function that returns early while still holding it deadlocks the writer
// and every reader of that table, and unlike a leaked file handle nothing
// ever cleans it up.
//
// The analysis is intraprocedural and walks each function body in source
// order, keeping a stack of outstanding Table.rowsMu acquisitions:
// Lock/RLock pushes, Unlock/RUnlock pops (a deferred unlock also pops —
// its runtime meaning is "released on every path out"), and unmatched
// releases are clamped rather than reported, since release-only helpers
// are legitimate. A `return` reached while the stack is non-empty and a
// function end reached while it is non-empty are reported. Function
// literals are analyzed as separate bodies with an empty stack — a
// goroutine neither inherits nor discharges its spawner's locks.
//
// The source-order model is deliberately linear: an unlock inside one
// branch discharges the obligation for the code after the branch too.
// That under-reports some genuinely leaky shapes but never false-positives
// on the engine's real lock sites, which is the right trade for a hard CI
// gate.
package partlock

import (
	"go/ast"
	"go/token"

	"genmapper/internal/lint/analysis"
	"genmapper/internal/lint/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "partlock",
	Doc:  "checks that row-map locks are released on all paths",
	Run:  run,
}

// partLocks are the lock fields whose holds must not escape the
// acquiring function. Table.rowsMu guards each table's row map; the set is
// a map so siblings can be added as storage grows.
var partLocks = map[string]string{
	"genmapper/internal/sqldb.Table.rowsMu": "Table.rowsMu",
}

func run(pass *analysis.Pass) (any, error) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			walkBody(pass, fn.Body)
		}
	}
	return nil, nil
}

// walkBody analyzes one body with an empty ledger, queueing nested function
// literals for their own analysis.
func walkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	var held []token.Pos // outstanding Table.rowsMu acquisitions, in source order
	var lits []*ast.FuncLit
	lintutil.WalkStack(body, func(n ast.Node, stack []ast.Node) bool {
		switch t := n.(type) {
		case *ast.FuncLit:
			lits = append(lits, t)
			return false
		case *ast.CallExpr:
			held = visitCall(pass, t, stack, held)
		case *ast.ReturnStmt:
			for _, pos := range held {
				pass.Reportf(t.Pos(), "return while holding %s (acquired at %s); row-map locks must be released on every path",
					lockLabel, pass.Fset.Position(pos))
			}
		}
		return true
	})
	for _, pos := range held {
		pass.Reportf(pos, "%s acquired here is not released before function end", lockLabel)
	}
	for _, lit := range lits {
		walkBody(pass, lit.Body)
	}
}

// lockLabel is the diagnostic name; with a single classified lock it is a
// constant, kept separate from partLocks so messages stay stable if the
// set grows.
const lockLabel = "Table.rowsMu"

func visitCall(pass *analysis.Pass, call *ast.CallExpr, stack []ast.Node, held []token.Pos) []token.Pos {
	recv, _, method, ok := lintutil.MethodCall(pass.TypesInfo, call)
	if !ok {
		return held
	}
	key, isField := lintutil.FieldKey(pass.TypesInfo, recv)
	if !isField {
		return held
	}
	if _, classified := partLocks[key]; !classified {
		return held
	}
	switch method {
	case "Lock", "RLock":
		// A deferred acquisition is nonsensical; only live ones create an
		// obligation.
		if !insideDefer(stack) {
			held = append(held, call.Pos())
		}
	case "Unlock", "RUnlock":
		// A deferred unlock discharges the newest obligation: it runs on
		// every path out of the function. Unmatched releases are clamped —
		// release-only helpers are the caller's business.
		if len(held) > 0 {
			held = held[:len(held)-1]
		}
	}
	return held
}

func insideDefer(stack []ast.Node) bool {
	for _, n := range stack {
		if _, ok := n.(*ast.DeferStmt); ok {
			return true
		}
	}
	return false
}
