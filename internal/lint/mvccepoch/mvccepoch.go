// Package mvccepoch enforces the MVCC publication invariant: commit
// epochs become visible to lock-free readers only through the audited
// commit accessor, and only after the commit's WAL record is appended.
//
// Four rules, intraprocedural over internal/sqldb types:
//
//  1. DB.epoch may only be mutated inside publishCommit. The epoch is
//     the release fence every snapshot reader synchronizes on; a store
//     anywhere else can make versions visible whose beg stamps a reader
//     has not been guaranteed to observe.
//  2. rowVersion.beg may only be stored with the result of
//     writeCtx.stamp() (provisional version installation) or inside
//     publishCommit (commit-epoch stamping). Any other store forges a
//     visibility stamp outside the audited sites.
//  3. A call to DB.publishCommit must be lexically preceded by a WAL
//     append (durability.logCommit, WAL.Append, or buffering into
//     Tx.logged) in the same function. Publishing first would let a
//     snapshot reader observe a commit a crash could erase. Recovery
//     replay (replayPublishers) is the one exemption: it publishes
//     records it has just read from the log.
//  4. DB.publishCommit may only be called from the audited committer
//     functions (publishCallers). Epoch advances are serialized by
//     holding db.writer plus the exclusive db.mu, so WAL order equals
//     publication order; that argument is made per call site, so a new
//     site must be added here deliberately.
package mvccepoch

import (
	"go/ast"
	"go/token"

	"genmapper/internal/lint/analysis"
	"genmapper/internal/lint/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "mvccepoch",
	Doc:  "requires MVCC commit epochs to be published only by publishCommit, after the WAL append",
	Run:  run,
}

const sqldbPath = "genmapper/internal/sqldb"

// epochPublishers are the only functions allowed to mutate DB.epoch.
var epochPublishers = map[string]bool{
	"publishCommit": true,
}

// begStampers may store arbitrary values into rowVersion.beg: only the
// commit publisher, which stamps commit epochs.
var begStampers = map[string]bool{
	"publishCommit": true,
}

// logCalls are the method calls that constitute "the commit is bound for
// the WAL" (same set walack keys on).
var logCalls = map[string]bool{
	"genmapper/internal/sqldb.durability.logCommit": true,
	"genmapper/internal/wal.WAL.Append":             true,
}

// publishCallers are the audited commit paths: the only functions that
// may call publishCommit. execPrepared, Tx.Publish and applyRecord all
// hold db.writer and publish under the exclusive db.mu.
var publishCallers = map[string]bool{
	"execPrepared": true,
	"Publish":      true,
	"applyRecord":  true,
}

// replayPublishers publish commits that are already in the log: recovery
// replays each record it reads through the live write path, so there is
// no append to precede the publication.
var replayPublishers = map[string]bool{
	"applyRecord": true,
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
			checkBody(pass, fn.Name.Name, fn.Body)
		}
	}
	return nil, nil
}

func checkBody(pass *analysis.Pass, fnName string, body *ast.BlockStmt) {
	// Position of the first WAL-append step, or NoPos when the function
	// never logs.
	firstLog := token.NoPos
	var publishes []*ast.CallExpr
	var lits []*ast.FuncLit
	lintutil.WalkStack(body, func(n ast.Node, stack []ast.Node) bool {
		switch t := n.(type) {
		case *ast.FuncLit:
			// A closure is its own commit path: the spawner's append
			// happens-before nothing inside a goroutine body.
			lits = append(lits, t)
			return false
		case *ast.CallExpr:
			if _, recvKey, name, ok := lintutil.MethodCall(pass.TypesInfo, t); ok {
				full := recvKey + "." + name
				if logCalls[full] && firstLog == token.NoPos {
					firstLog = t.Pos()
				}
				if full == sqldbPath+".DB.publishCommit" {
					publishes = append(publishes, t)
				}
			}
		case *ast.SelectorExpr:
			// Buffering into tx.logged defers the append to Publish, which
			// re-checks the ordering there; treat it as the log step.
			if key, ok := lintutil.FieldKey(pass.TypesInfo, t); ok && key == sqldbPath+".Tx.logged" && firstLog == token.NoPos {
				firstLog = t.Pos()
			}
			checkEpochMutation(pass, fnName, t, stack)
		}
		return true
	})

	for _, p := range publishes {
		if !replayPublishers[fnName] && (firstLog == token.NoPos || p.Pos() < firstLog) {
			pass.Reportf(p.Pos(), "publishCommit before any WAL append in this function; commit epochs may only become visible after the commit record is logged")
		}
		if pass.Pkg.Path() == sqldbPath && !publishCallers[fnName] {
			pass.Reportf(p.Pos(), "publishCommit called outside the audited committer functions; epoch advances must be serialized (db.writer plus exclusive db.mu) — add the new site to mvccepoch's publishCallers with that argument")
		}
	}
	for _, lit := range lits {
		checkBody(pass, fnName, lit.Body)
	}
}

// checkEpochMutation reports stores to DB.epoch outside publishCommit and
// stores to rowVersion.beg that neither come from writeCtx.stamp() nor
// happen inside an audited stamper.
func checkEpochMutation(pass *analysis.Pass, fnName string, sel *ast.SelectorExpr, stack []ast.Node) {
	key, ok := lintutil.FieldKey(pass.TypesInfo, sel)
	if !ok {
		return
	}
	switch key {
	case sqldbPath + ".DB.epoch":
		if call, method := mutatorCall(sel, stack); call != nil && mutators[method] && !epochPublishers[fnName] {
			pass.Reportf(sel.Pos(), "DB.epoch is mutated outside publishCommit; the commit epoch is the readers' release fence and may only advance through the audited publisher")
		}
	case sqldbPath + ".rowVersion.beg":
		call, method := mutatorCall(sel, stack)
		if call == nil || !mutators[method] || begStampers[fnName] {
			return
		}
		if len(call.Args) == 1 && isStampCall(pass, call.Args[0]) {
			return
		}
		pass.Reportf(sel.Pos(), "rowVersion.beg is stamped outside the audited sites; install versions with writeCtx.stamp() and publish commit epochs only through publishCommit")
	}
}

// mutatorCall returns the call expression and method name when sel is the
// receiver of a method call (sel.Method(...)), e.g. db.epoch.Store(e).
func mutatorCall(sel *ast.SelectorExpr, stack []ast.Node) (*ast.CallExpr, string) {
	if len(stack) < 2 {
		return nil, ""
	}
	parent, ok := stack[len(stack)-1].(*ast.SelectorExpr)
	if !ok || parent.X != ast.Expr(sel) {
		return nil, ""
	}
	call, ok := stack[len(stack)-2].(*ast.CallExpr)
	if !ok || call.Fun != ast.Expr(parent) {
		return nil, ""
	}
	return call, parent.Sel.Name
}

// isStampCall reports whether e is a call of writeCtx.stamp.
func isStampCall(pass *analysis.Pass, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	_, recvKey, name, ok := lintutil.MethodCall(pass.TypesInfo, call)
	return ok && recvKey == sqldbPath+".writeCtx" && name == "stamp"
}
