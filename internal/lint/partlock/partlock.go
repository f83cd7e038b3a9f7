// Package partlock checks that partition locks are released on every
// path out of the function that acquired them.
//
// Readers and writers take tablePart.mu around each row-map access. A
// function that returns early while still holding the partition lock
// deadlocks every writer touching that partition, and unlike a leaked
// file handle nothing ever cleans it up.
//
// The analysis is intraprocedural and walks each function body in source
// order, keeping a stack of outstanding tablePart.mu acquisitions:
// Lock/RLock pushes, Unlock/RUnlock pops (a deferred unlock also pops —
// its runtime meaning is "released on every path out"), and unmatched
// releases are clamped rather than reported, since release-only helpers
// are legitimate. A `return` reached while the stack is non-empty and a
// function end reached while it is non-empty are reported. Function
// literals are analyzed as separate bodies with an empty stack — a
// goroutine neither inherits nor discharges its spawner's locks.
//
// Since per-partition write latching, the package also tracks latch-set
// obligations: a call to Table.acquireLatches or DB.collectLatched leaves
// the caller holding partition write latches (tablePart.w), and the hold
// must be discharged by latchSet.release on every path — with two
// exceptions that encode the latch API's contract. A return that returns
// a *latchSet identifier transfers the hold to the caller (that is how
// collectLatched hands latches to its caller), and, for collectLatched
// only, a return that returns the error identifier the acquiring call
// assigned is the producer's own failure guard: on error collectLatched
// holds nothing, so there is nothing to release.
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
	Doc:  "checks that partition locks and write-latch sets are released on all paths",
	Run:  run,
}

// partLocks are the lock fields whose holds must not escape the
// acquiring function. tablePart.mu guards each partition's row map; the
// set is a map so siblings can be added as storage grows.
var partLocks = map[string]string{
	"genmapper/internal/sqldb.tablePart.mu": "tablePart.mu",
}

const sqldbPath = "genmapper/internal/sqldb"

// latchProducers are the calls that leave the caller holding partition
// write latches. The value records whether the producer is conditional:
// collectLatched returns with the latches held only on success, so its
// own error guard (returning the error it assigned) is not a leak.
var latchProducers = map[string]bool{
	sqldbPath + ".Table.acquireLatches": false,
	sqldbPath + ".DB.collectLatched":    true,
}

// latchRelease is the single call that discharges a latch obligation.
const latchRelease = sqldbPath + ".latchSet.release"

// latchOb is one outstanding latch-set obligation.
type latchOb struct {
	pos     token.Pos
	errName string // conditional producers: the assigned error identifier
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

// walkBody analyzes one body with empty ledgers, queueing nested function
// literals for their own analysis.
func walkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	var held []token.Pos  // outstanding tablePart.mu acquisitions, in source order
	var latches []latchOb // outstanding latch-set obligations
	var lits []*ast.FuncLit
	lintutil.WalkStack(body, func(n ast.Node, stack []ast.Node) bool {
		switch t := n.(type) {
		case *ast.FuncLit:
			lits = append(lits, t)
			return false
		case *ast.CallExpr:
			held = visitCall(pass, t, stack, held)
			latches = visitLatchCall(pass, t, stack, latches)
		case *ast.ReturnStmt:
			for _, pos := range held {
				pass.Reportf(t.Pos(), "return while holding %s (acquired at %s); partition locks must be released on every path",
					lockLabel, pass.Fset.Position(pos))
			}
			latches = checkLatchReturn(pass, t, latches)
		}
		return true
	})
	for _, pos := range held {
		pass.Reportf(pos, "%s acquired here is not released before function end", lockLabel)
	}
	for _, ob := range latches {
		pass.Reportf(ob.pos, "latch set acquired here is not released before function end")
	}
	for _, lit := range lits {
		walkBody(pass, lit.Body)
	}
}

// checkLatchReturn reports a return reached with latch obligations
// outstanding, honoring the two discharging shapes: returning a *latchSet
// identifier transfers the hold to the caller (popping the newest
// obligation, like a release), and a conditional producer's error guard —
// returning the error identifier its acquiring call assigned — is exempt
// without popping, since later paths still owe a release.
func checkLatchReturn(pass *analysis.Pass, ret *ast.ReturnStmt, latches []latchOb) []latchOb {
	transfers := 0
	names := make(map[string]bool)
	for _, r := range ret.Results {
		id, ok := r.(*ast.Ident)
		if !ok {
			continue
		}
		names[id.Name] = true
		if lintutil.NamedKey(pass.TypesInfo.TypeOf(id)) == sqldbPath+".latchSet" {
			transfers++
		}
	}
	for ; transfers > 0 && len(latches) > 0; transfers-- {
		latches = latches[:len(latches)-1]
	}
	for _, ob := range latches {
		if ob.errName != "" && names[ob.errName] {
			continue
		}
		pass.Reportf(ret.Pos(), "return while holding partition write latches (acquired at %s); release the latch set on every path or return it to the caller",
			pass.Fset.Position(ob.pos))
	}
	return latches
}

// visitLatchCall maintains the latch-obligation ledger: producer calls
// push, latchSet.release pops (clamped — release-only helpers are the
// caller's business).
func visitLatchCall(pass *analysis.Pass, call *ast.CallExpr, stack []ast.Node, latches []latchOb) []latchOb {
	_, recvKey, method, ok := lintutil.MethodCall(pass.TypesInfo, call)
	if !ok {
		return latches
	}
	full := recvKey + "." + method
	if full == latchRelease {
		// A deferred release discharges like a deferred unlock: it runs on
		// every path out of the function.
		if len(latches) > 0 {
			latches = latches[:len(latches)-1]
		}
		return latches
	}
	conditional, producer := latchProducers[full]
	if !producer {
		return latches
	}
	ob := latchOb{pos: call.Pos()}
	if conditional {
		ob.errName = assignedErrName(pass, call, stack)
	}
	return append(latches, ob)
}

// assignedErrName returns the name of the error-typed identifier the
// call's enclosing assignment binds, or "" when the result is not
// assigned to one (then no return is exempt and every path owes a
// release or a transfer).
func assignedErrName(pass *analysis.Pass, call *ast.CallExpr, stack []ast.Node) string {
	if len(stack) == 0 {
		return ""
	}
	asg, ok := stack[len(stack)-1].(*ast.AssignStmt)
	if !ok || len(asg.Rhs) != 1 || asg.Rhs[0] != ast.Expr(call) {
		return ""
	}
	errIdx, _ := lintutil.ErrorResults(pass.TypesInfo, call)
	for _, i := range errIdx {
		if i < len(asg.Lhs) {
			if id, ok := asg.Lhs[i].(*ast.Ident); ok && id.Name != "_" {
				return id.Name
			}
		}
	}
	return ""
}

// lockLabel is the diagnostic name; with a single classified lock it is a
// constant, kept separate from partLocks so messages stay stable if the
// set grows.
const lockLabel = "tablePart.mu"

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
