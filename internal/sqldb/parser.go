package sqldb

import (
	"fmt"
	"strings"
)

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// SelectStmt is a parsed SELECT.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     TableRef
	Joins    []JoinClause
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    Expr // nil when absent
	Offset   Expr // nil when absent
}

// SelectItem is one projection in the SELECT list. Star items project all
// columns (optionally of one qualifier: `t.*`).
type SelectItem struct {
	Expr  Expr
	Alias string
	Star  bool
	Qual  string // qualifier for `t.*`
}

// TableRef names a base table with an optional alias.
type TableRef struct {
	Name  string
	Alias string
}

// Binding returns the name queries use to qualify this table's columns.
func (t TableRef) Binding() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// JoinKind distinguishes join types.
type JoinKind int

// Supported join types. RIGHT joins are normalized to LEFT joins by an
// input swap at plan time; CROSS joins have no ON clause.
const (
	JoinInner JoinKind = iota
	JoinLeft
	JoinRight
	JoinCross
)

// String renders the SQL spelling of the join type.
func (k JoinKind) String() string {
	switch k {
	case JoinInner:
		return "INNER"
	case JoinLeft:
		return "LEFT"
	case JoinRight:
		return "RIGHT"
	case JoinCross:
		return "CROSS"
	}
	return "JOIN"
}

// JoinClause is one JOIN ... ON ... segment. On is nil for CROSS joins.
type JoinClause struct {
	Kind  JoinKind
	Table TableRef
	On    Expr
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// InsertStmt is a parsed INSERT.
type InsertStmt struct {
	Table   string
	Columns []string // empty means all columns in schema order
	Rows    [][]Expr
}

// UpdateStmt is a parsed UPDATE.
type UpdateStmt struct {
	Table string
	Sets  []SetClause
	Where Expr
}

// SetClause is one `col = expr` assignment.
type SetClause struct {
	Column string
	Expr   Expr
}

// DeleteStmt is a parsed DELETE.
type DeleteStmt struct {
	Table string
	Where Expr
}

// CreateTableStmt is a parsed CREATE TABLE.
type CreateTableStmt struct {
	Name        string
	Columns     []Column
	IfNotExists bool
}

// CreateIndexStmt is a parsed CREATE [UNIQUE] INDEX.
type CreateIndexStmt struct {
	Name        string
	Table       string
	Column      string
	Kind        IndexKind
	Unique      bool
	IfNotExists bool
}

// DropTableStmt is a parsed DROP TABLE.
type DropTableStmt struct {
	Name     string
	IfExists bool
}

// DropIndexStmt is a parsed DROP INDEX name ON table.
type DropIndexStmt struct {
	Name     string
	Table    string
	IfExists bool
}

// ExplainStmt wraps another statement for plan inspection:
// EXPLAIN [ (FORMAT JSON|TEXT) ] <stmt>. Format is "json" or "text"
// (the default).
type ExplainStmt struct {
	Format string
	Stmt   Statement
}

// BeginStmt, CommitStmt and RollbackStmt control transactions.
type BeginStmt struct{}

// CommitStmt commits the current transaction.
type CommitStmt struct{}

// RollbackStmt aborts the current transaction.
type RollbackStmt struct{}

func (*SelectStmt) stmt()      {}
func (*ExplainStmt) stmt()     {}
func (*InsertStmt) stmt()      {}
func (*UpdateStmt) stmt()      {}
func (*DeleteStmt) stmt()      {}
func (*CreateTableStmt) stmt() {}
func (*CreateIndexStmt) stmt() {}
func (*DropTableStmt) stmt()   {}
func (*DropIndexStmt) stmt()   {}
func (*BeginStmt) stmt()       {}
func (*CommitStmt) stmt()      {}
func (*RollbackStmt) stmt()    {}

// Parse parses a single SQL statement. A trailing semicolon is permitted.
func Parse(sql string) (Statement, error) {
	toks, err := lexSQL(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: sql}
	st, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	p.accept(tokSymbol, ";")
	if !p.at(tokEOF, "") {
		return nil, p.errf("unexpected trailing input %q", p.cur().text)
	}
	return st, nil
}

type parser struct {
	toks []token
	pos  int
	src  string
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) at(kind tokenKind, text string) bool {
	t := p.cur()
	if t.kind != kind {
		return false
	}
	return text == "" || t.text == text
}

func (p *parser) accept(kind tokenKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(kind tokenKind, text string) (token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	want := text
	if want == "" {
		switch kind {
		case tokIdent:
			want = "identifier"
		case tokNumber:
			want = "number"
		default:
			want = "token"
		}
	}
	return token{}, p.errf("expected %s, found %q", want, p.cur().text)
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sqldb: parse error at offset %d: %s", p.cur().pos, fmt.Sprintf(format, args...))
}

// softKeywords may be used as plain identifiers (column and table names)
// where the grammar is unambiguous, so that schemas can have columns like
// "text" or "count" without quoting.
var softKeywords = map[string]bool{
	"TEXT": true, "INTEGER": true, "INT": true, "REAL": true, "FLOAT": true,
	"BOOLEAN": true, "BOOL": true, "VARCHAR": true, "HASH": true,
	"BTREE": true, "KEY": true, "COUNT": true, "SUM": true, "AVG": true,
	"MIN": true, "MAX": true, "FORMAT": true, "JSON": true,
}

// expectIdent accepts an identifier or a soft keyword used as a name.
func (p *parser) expectIdent() (token, error) {
	t := p.cur()
	if t.kind == tokIdent || (t.kind == tokKeyword && softKeywords[t.text]) {
		p.pos++
		return t, nil
	}
	return token{}, p.errf("expected identifier, found %q", t.text)
}

func (p *parser) parseStatement() (Statement, error) {
	t := p.cur()
	if t.kind != tokKeyword {
		return nil, p.errf("expected statement keyword, found %q", t.text)
	}
	switch t.text {
	case "SELECT":
		return p.parseSelect()
	case "EXPLAIN":
		return p.parseExplain()
	case "INSERT":
		return p.parseInsert()
	case "UPDATE":
		return p.parseUpdate()
	case "DELETE":
		return p.parseDelete()
	case "CREATE":
		return p.parseCreate()
	case "DROP":
		return p.parseDrop()
	case "BEGIN":
		p.next()
		p.accept(tokKeyword, "TRANSACTION")
		return &BeginStmt{}, nil
	case "COMMIT":
		p.next()
		return &CommitStmt{}, nil
	case "ROLLBACK":
		p.next()
		return &RollbackStmt{}, nil
	}
	return nil, p.errf("unsupported statement %q", t.text)
}

// parseExplain parses EXPLAIN [ (FORMAT JSON|TEXT) ] <stmt>.
func (p *parser) parseExplain() (*ExplainStmt, error) {
	p.next() // EXPLAIN
	st := &ExplainStmt{Format: "text"}
	if p.accept(tokSymbol, "(") {
		if _, err := p.expect(tokKeyword, "FORMAT"); err != nil {
			return nil, err
		}
		switch {
		case p.accept(tokKeyword, "JSON"):
			st.Format = "json"
		case p.accept(tokKeyword, "TEXT"):
			st.Format = "text"
		default:
			return nil, p.errf("expected JSON or TEXT after FORMAT")
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
	}
	if p.at(tokKeyword, "EXPLAIN") {
		return nil, p.errf("EXPLAIN cannot be nested")
	}
	inner, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	st.Stmt = inner
	return st, nil
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	p.next() // SELECT
	st := &SelectStmt{}
	st.Distinct = p.accept(tokKeyword, "DISTINCT")

	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		st.Items = append(st.Items, item)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}

	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	ref, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	st.From = ref

	for {
		kind, isJoin := JoinInner, false
		switch {
		case p.at(tokKeyword, "JOIN"):
			p.next()
			isJoin = true
		case p.at(tokKeyword, "INNER"):
			p.next()
			if _, err := p.expect(tokKeyword, "JOIN"); err != nil {
				return nil, err
			}
			isJoin = true
		case p.at(tokKeyword, "LEFT"):
			p.next()
			p.accept(tokKeyword, "OUTER")
			if _, err := p.expect(tokKeyword, "JOIN"); err != nil {
				return nil, err
			}
			kind, isJoin = JoinLeft, true
		case p.at(tokKeyword, "RIGHT"):
			p.next()
			p.accept(tokKeyword, "OUTER")
			if _, err := p.expect(tokKeyword, "JOIN"); err != nil {
				return nil, err
			}
			kind, isJoin = JoinRight, true
		case p.at(tokKeyword, "CROSS"):
			p.next()
			if _, err := p.expect(tokKeyword, "JOIN"); err != nil {
				return nil, err
			}
			kind, isJoin = JoinCross, true
		}
		if !isJoin {
			break
		}
		jt, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		var on Expr
		if kind != JoinCross {
			if _, err := p.expect(tokKeyword, "ON"); err != nil {
				return nil, err
			}
			on, err = p.parseExpr()
			if err != nil {
				return nil, err
			}
		}
		st.Joins = append(st.Joins, JoinClause{Kind: kind, Table: jt, On: on})
	}

	if p.accept(tokKeyword, "WHERE") {
		st.Where, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	if p.accept(tokKeyword, "GROUP") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			st.GroupBy = append(st.GroupBy, e)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	if p.accept(tokKeyword, "HAVING") {
		st.Having, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	if p.accept(tokKeyword, "ORDER") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.accept(tokKeyword, "DESC") {
				item.Desc = true
			} else {
				p.accept(tokKeyword, "ASC")
			}
			st.OrderBy = append(st.OrderBy, item)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	if p.accept(tokKeyword, "LIMIT") {
		st.Limit, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	if p.accept(tokKeyword, "OFFSET") {
		st.Offset, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	return st, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	// `*`
	if p.accept(tokSymbol, "*") {
		return SelectItem{Star: true}, nil
	}
	// `t.*`
	if p.cur().kind == tokIdent && p.toks[p.pos+1].kind == tokSymbol && p.toks[p.pos+1].text == "." &&
		p.toks[p.pos+2].kind == tokSymbol && p.toks[p.pos+2].text == "*" {
		qual := p.next().text
		p.next() // .
		p.next() // *
		return SelectItem{Star: true, Qual: qual}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.accept(tokKeyword, "AS") {
		t, err := p.expectIdent()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = t.text
	} else if p.cur().kind == tokIdent {
		item.Alias = p.next().text
	}
	return item, nil
}

func (p *parser) parseTableRef() (TableRef, error) {
	t, err := p.expectIdent()
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Name: t.text}
	if p.accept(tokKeyword, "AS") {
		a, err := p.expectIdent()
		if err != nil {
			return TableRef{}, err
		}
		ref.Alias = a.text
	} else if p.cur().kind == tokIdent {
		ref.Alias = p.next().text
	}
	return ref, nil
}

func (p *parser) parseInsert() (*InsertStmt, error) {
	p.next() // INSERT
	if _, err := p.expect(tokKeyword, "INTO"); err != nil {
		return nil, err
	}
	t, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st := &InsertStmt{Table: t.text}
	if p.accept(tokSymbol, "(") {
		for {
			c, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			st.Columns = append(st.Columns, c.text)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tokKeyword, "VALUES"); err != nil {
		return nil, err
	}
	for {
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		st.Rows = append(st.Rows, row)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	return st, nil
}

func (p *parser) parseUpdate() (*UpdateStmt, error) {
	p.next() // UPDATE
	t, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st := &UpdateStmt{Table: t.text}
	if _, err := p.expect(tokKeyword, "SET"); err != nil {
		return nil, err
	}
	for {
		c, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, "="); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Sets = append(st.Sets, SetClause{Column: c.text, Expr: e})
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if p.accept(tokKeyword, "WHERE") {
		st.Where, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	return st, nil
}

func (p *parser) parseDelete() (*DeleteStmt, error) {
	p.next() // DELETE
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	t, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st := &DeleteStmt{Table: t.text}
	if p.accept(tokKeyword, "WHERE") {
		st.Where, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	return st, nil
}

func (p *parser) parseCreate() (Statement, error) {
	p.next() // CREATE
	unique := p.accept(tokKeyword, "UNIQUE")
	switch {
	case p.accept(tokKeyword, "TABLE"):
		if unique {
			return nil, p.errf("UNIQUE is not valid before TABLE")
		}
		return p.parseCreateTable()
	case p.accept(tokKeyword, "INDEX"):
		return p.parseCreateIndex(unique)
	}
	return nil, p.errf("expected TABLE or INDEX after CREATE")
}

func (p *parser) parseIfNotExists() (bool, error) {
	if !p.accept(tokKeyword, "IF") {
		return false, nil
	}
	if _, err := p.expect(tokKeyword, "NOT"); err != nil {
		return false, err
	}
	if _, err := p.expect(tokKeyword, "EXISTS"); err != nil {
		return false, err
	}
	return true, nil
}

func (p *parser) parseCreateTable() (*CreateTableStmt, error) {
	ifNotExists, err := p.parseIfNotExists()
	if err != nil {
		return nil, err
	}
	t, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	st := &CreateTableStmt{Name: t.text, IfNotExists: ifNotExists}
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	for {
		col, err := p.parseColumnDef()
		if err != nil {
			return nil, err
		}
		st.Columns = append(st.Columns, col)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *parser) parseColumnDef() (Column, error) {
	name, err := p.expectIdent()
	if err != nil {
		return Column{}, err
	}
	col := Column{Name: name.text}
	typ := p.cur()
	if typ.kind != tokKeyword {
		return Column{}, p.errf("expected column type, found %q", typ.text)
	}
	switch typ.text {
	case "INTEGER", "INT":
		col.Type = TypeInt
	case "REAL", "FLOAT":
		col.Type = TypeFloat
	case "TEXT", "VARCHAR":
		col.Type = TypeText
	case "BOOLEAN", "BOOL":
		col.Type = TypeBool
	default:
		return Column{}, p.errf("unsupported column type %q", typ.text)
	}
	p.next()
	// VARCHAR(255)-style size suffixes are accepted and ignored.
	if p.accept(tokSymbol, "(") {
		if _, err := p.expect(tokNumber, ""); err != nil {
			return Column{}, err
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return Column{}, err
		}
	}
	for {
		switch {
		case p.accept(tokKeyword, "PRIMARY"):
			if _, err := p.expect(tokKeyword, "KEY"); err != nil {
				return Column{}, err
			}
			col.PrimaryKey = true
		case p.accept(tokKeyword, "AUTOINCREMENT"):
			col.AutoIncrement = true
		case p.accept(tokKeyword, "NOT"):
			if _, err := p.expect(tokKeyword, "NULL"); err != nil {
				return Column{}, err
			}
			col.NotNull = true
		case p.accept(tokKeyword, "DEFAULT"):
			lit, err := p.parsePrimary()
			if err != nil {
				return Column{}, err
			}
			l, ok := lit.(*Literal)
			if !ok {
				return Column{}, p.errf("DEFAULT requires a literal value")
			}
			col.Default = l.Val
		default:
			return col, nil
		}
	}
}

func (p *parser) parseCreateIndex(unique bool) (*CreateIndexStmt, error) {
	ifNotExists, err := p.parseIfNotExists()
	if err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "ON"); err != nil {
		return nil, err
	}
	table, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	col, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	st := &CreateIndexStmt{
		Name: name.text, Table: table.text, Column: col.text,
		Unique: unique, Kind: IndexHash, IfNotExists: ifNotExists,
	}
	if p.accept(tokKeyword, "USING") {
		switch {
		case p.accept(tokKeyword, "HASH"):
			st.Kind = IndexHash
		case p.accept(tokKeyword, "BTREE"):
			st.Kind = IndexBTree
		default:
			return nil, p.errf("expected HASH or BTREE after USING")
		}
	}
	return st, nil
}

func (p *parser) parseDrop() (Statement, error) {
	p.next() // DROP
	switch {
	case p.accept(tokKeyword, "TABLE"):
		ifExists := false
		if p.accept(tokKeyword, "IF") {
			if _, err := p.expect(tokKeyword, "EXISTS"); err != nil {
				return nil, err
			}
			ifExists = true
		}
		t, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return &DropTableStmt{Name: t.text, IfExists: ifExists}, nil
	case p.accept(tokKeyword, "INDEX"):
		ifExists := false
		if p.accept(tokKeyword, "IF") {
			if _, err := p.expect(tokKeyword, "EXISTS"); err != nil {
				return nil, err
			}
			ifExists = true
		}
		n, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		st := &DropIndexStmt{Name: n.text, IfExists: ifExists}
		if p.accept(tokKeyword, "ON") {
			t, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			st.Table = t.text
		}
		return st, nil
	}
	return nil, p.errf("expected TABLE or INDEX after DROP")
}

// ---------------------------------------------------------------------------
// Expression parsing (precedence climbing)

// parseExpr parses a full boolean expression.
func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: OpOr, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for {
		// Disambiguate: AND inside BETWEEN is consumed by parseComparison.
		if !p.at(tokKeyword, "AND") {
			return l, nil
		}
		p.next()
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: OpAnd, L: l, R: r}
	}
}

func (p *parser) parseNot() (Expr, error) {
	if p.accept(tokKeyword, "NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: "NOT", X: x}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// IS [NOT] NULL
	if p.accept(tokKeyword, "IS") {
		neg := p.accept(tokKeyword, "NOT")
		if _, err := p.expect(tokKeyword, "NULL"); err != nil {
			return nil, err
		}
		return &IsNull{X: l, Negate: neg}, nil
	}
	// [NOT] IN / LIKE / BETWEEN
	neg := false
	if p.at(tokKeyword, "NOT") {
		nt := p.toks[p.pos+1]
		if nt.kind == tokKeyword && (nt.text == "IN" || nt.text == "LIKE" || nt.text == "BETWEEN") {
			p.next()
			neg = true
		}
	}
	switch {
	case p.accept(tokKeyword, "IN"):
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		var items []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			items = append(items, e)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return &InList{X: l, Items: items, Negate: neg}, nil
	case p.accept(tokKeyword, "LIKE"):
		r, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		like := Expr(&Binary{Op: OpLike, L: l, R: r})
		if neg {
			like = &Unary{Op: "NOT", X: like}
		}
		return like, nil
	case p.accept(tokKeyword, "BETWEEN"):
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &Between{X: l, Lo: lo, Hi: hi, Negate: neg}, nil
	}
	if neg {
		return nil, p.errf("dangling NOT")
	}
	ops := map[string]BinOp{"=": OpEq, "<>": OpNe, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe}
	if p.cur().kind == tokSymbol {
		if op, ok := ops[p.cur().text]; ok {
			p.next()
			r, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			return &Binary{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op BinOp
		switch {
		case p.at(tokSymbol, "+"):
			op = OpAdd
		case p.at(tokSymbol, "-"):
			op = OpSub
		case p.at(tokSymbol, "||"):
			op = OpConcat
		default:
			return l, nil
		}
		p.next()
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: op, L: l, R: r}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op BinOp
		switch {
		case p.at(tokSymbol, "*"):
			op = OpMul
		case p.at(tokSymbol, "/"):
			op = OpDiv
		case p.at(tokSymbol, "%"):
			op = OpMod
		default:
			return l, nil
		}
		p.next()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &Binary{Op: op, L: l, R: r}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.accept(tokSymbol, "-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if l, ok := x.(*Literal); ok {
			switch v := l.Val.(type) {
			case int64:
				return &Literal{Val: -v}, nil
			case float64:
				return &Literal{Val: -v}, nil
			}
		}
		return &Unary{Op: "-", X: x}, nil
	}
	p.accept(tokSymbol, "+")
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokNumber:
		p.next()
		return &Literal{Val: t.num}, nil
	case tokString:
		p.next()
		return &Literal{Val: t.text}, nil
	case tokParam:
		p.next()
		n := 0
		fmt.Sscanf(t.text, "%d", &n)
		return &Param{Pos: n}, nil
	case tokKeyword:
		switch t.text {
		case "NULL":
			p.next()
			return &Literal{Val: nil}, nil
		case "TRUE":
			p.next()
			return &Literal{Val: true}, nil
		case "FALSE":
			p.next()
			return &Literal{Val: false}, nil
		case "COUNT", "SUM", "AVG", "MIN", "MAX":
			if p.toks[p.pos+1].kind == tokSymbol && p.toks[p.pos+1].text == "(" {
				return p.parseFuncCall(t.text)
			}
		}
		// Soft keywords may appear as (optionally qualified) column names.
		if softKeywords[t.text] {
			p.next()
			if p.accept(tokSymbol, ".") {
				c, err := p.expectIdent()
				if err != nil {
					return nil, err
				}
				return &ColumnRef{Qual: t.text, Name: c.text}, nil
			}
			return &ColumnRef{Name: t.text}, nil
		}
		return nil, p.errf("unexpected keyword %q in expression", t.text)
	case tokIdent:
		// Function call?
		if p.toks[p.pos+1].kind == tokSymbol && p.toks[p.pos+1].text == "(" {
			return p.parseFuncCall(strings.ToUpper(t.text))
		}
		p.next()
		// Qualified column `a.b`?
		if p.accept(tokSymbol, ".") {
			c, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Qual: t.text, Name: c.text}, nil
		}
		return &ColumnRef{Name: t.text}, nil
	case tokSymbol:
		if t.text == "(" {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokSymbol, ")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errf("unexpected token %q in expression", t.text)
}

func (p *parser) parseFuncCall(name string) (Expr, error) {
	p.next() // function name
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	fc := &FuncCall{Name: name}
	if name == "COUNT" && p.accept(tokSymbol, "*") {
		fc.Star = true
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return fc, nil
	}
	if !p.at(tokSymbol, ")") {
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			fc.Args = append(fc.Args, e)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	return fc, nil
}
