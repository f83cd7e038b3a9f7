// Package lockorder checks the engine's documented lock-acquisition order
// and that no blocking operation runs under a database lock.
//
// The engine's deadlock-freedom argument is a total order per lock domain:
//
//	db domain:  DB.writer < DB.mu < Table.histMu < Table.rowsMu
//	wal domain: WAL.syncMu < WAL.mu
//
// and one cross-cutting rule: fsync-class operations (File.Sync,
// WAL.Durable, the durability wait) never run while a db-domain lock is
// held — that is what makes group commit group anything.
//
// The analysis is intraprocedural and walks each function body in source
// order, maintaining the set of locks held: Lock/RLock on a classified
// field adds it, Unlock/RUnlock removes it, `defer mu.Unlock()` leaves it
// held to the end (which is its runtime meaning). Function literals are
// analyzed as separate bodies with an empty held set — a goroutine does
// not inherit its spawner's locks. Acquiring a class ranked lower than one
// already held, re-acquiring a held class, or making a blocking call with
// a db-domain lock held is reported.
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"

	"genmapper/internal/lint/analysis"
	"genmapper/internal/lint/lintutil"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc:  "checks lock-acquisition order and blocking calls under database locks",
	Run:  run,
}

// lockClass is one classified mutex field.
type lockClass struct {
	domain string
	rank   int    // acquisition order within the domain, ascending
	label  string // how the lock is named in diagnostics and docs
}

// classes maps "pkgpath.Type.field" keys to their documented order.
var classes = map[string]lockClass{
	"genmapper/internal/sqldb.DB.writer":    {domain: "db", rank: 0, label: "db.writer"},
	"genmapper/internal/sqldb.DB.mu":        {domain: "db", rank: 1, label: "db.mu"},
	"genmapper/internal/sqldb.Table.histMu": {domain: "db", rank: 2, label: "Table.histMu"},
	"genmapper/internal/sqldb.Table.rowsMu": {domain: "db", rank: 3, label: "Table.rowsMu"},
	"genmapper/internal/wal.WAL.syncMu":     {domain: "wal", rank: 0, label: "wal.syncMu"},
	"genmapper/internal/wal.WAL.mu":         {domain: "wal", rank: 1, label: "wal.mu"},
}

// blockingMethods are fsync-class calls: they block on disk or on another
// goroutine's fsync and must not run under a db-domain lock.
var blockingMethods = map[string]string{
	"genmapper/internal/wal.WAL.Durable":       "WAL.Durable",
	"genmapper/internal/wal.File.Sync":         "File.Sync",
	"os.File.Sync":                             "File.Sync",
	"genmapper/internal/sqldb.durability.wait": "durability.wait",
}

// held tracks one acquired lock.
type heldLock struct {
	class lockClass
	pos   token.Pos
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

// walkBody analyzes one body with an empty held set, queueing nested
// function literals for their own analysis.
func walkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	held := make(map[string]heldLock)
	var lits []*ast.FuncLit
	lintutil.WalkStack(body, func(n ast.Node, stack []ast.Node) bool {
		switch t := n.(type) {
		case *ast.FuncLit:
			lits = append(lits, t)
			return false
		case *ast.CallExpr:
			visitCall(pass, t, stack, held)
		case *ast.SendStmt:
			checkBlocked(pass, t.Pos(), "channel send", held)
		case *ast.UnaryExpr:
			if t.Op == token.ARROW {
				checkBlocked(pass, t.Pos(), "channel receive", held)
			}
		case *ast.RangeStmt:
			if tv, ok := pass.TypesInfo.Types[t.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					checkBlocked(pass, t.Pos(), "channel range", held)
				}
			}
		}
		return true
	})
	for _, lit := range lits {
		walkBody(pass, lit.Body)
	}
}

func visitCall(pass *analysis.Pass, call *ast.CallExpr, stack []ast.Node, held map[string]heldLock) {
	recv, recvKey, method, ok := lintutil.MethodCall(pass.TypesInfo, call)
	if !ok {
		return
	}
	if label, blocking := blockingMethods[recvKey+"."+method]; blocking {
		checkBlocked(pass, call.Pos(), label+" call", held)
		return
	}
	key, isField := lintutil.FieldKey(pass.TypesInfo, recv)
	if !isField {
		return
	}
	class, classified := classes[key]
	if !classified {
		return
	}
	switch method {
	case "Lock", "RLock":
		if prev, again := held[key]; again {
			pass.Reportf(call.Pos(), "%s acquired while already held (acquired at %s)", class.label, pass.Fset.Position(prev.pos))
			return
		}
		for _, h := range held {
			if h.class.domain == class.domain && h.class.rank > class.rank {
				pass.Reportf(call.Pos(), "lock order violation: %s acquired while holding %s; documented order is %s", class.label, h.class.label, domainOrder(class.domain))
			}
		}
		// A deferred Lock makes no sense and a deferred Unlock keeps the
		// lock held to function end, which the model below reflects by
		// never removing on defer.
		if !insideDefer(stack) {
			held[key] = heldLock{class: class, pos: call.Pos()}
		}
	case "Unlock", "RUnlock":
		if !insideDefer(stack) {
			delete(held, key)
		}
	}
}

// checkBlocked reports op if any db-domain lock is held: waiting under one
// stalls the writer, and with it every commit that could have joined the
// same fsync.
func checkBlocked(pass *analysis.Pass, pos token.Pos, op string, held map[string]heldLock) {
	for _, h := range held {
		if h.class.domain != "db" {
			continue
		}
		pass.Reportf(pos, "%s while holding %s (acquired at %s); release db locks before blocking so commits can group", op, h.class.label, pass.Fset.Position(h.pos))
		return
	}
}

func insideDefer(stack []ast.Node) bool {
	for _, n := range stack {
		if _, ok := n.(*ast.DeferStmt); ok {
			return true
		}
	}
	return false
}

func domainOrder(domain string) string {
	if domain == "wal" {
		return "syncMu < mu"
	}
	return "writer < mu < Table.histMu < Table.rowsMu"
}
