package sql

import (
	"fmt"
	"strconv"
	"strings"

	"repro/btrim"
)

// Parse parses exactly one statement (an optional trailing semicolon is
// allowed). Statements containing `?` placeholders parse fine here;
// executing them requires PREPARE (or the wire bind path) to supply the
// parameter values.
func Parse(input string) (Statement, error) {
	stmt, _, err := parseText(input)
	return stmt, err
}

// parseText lexes and parses, also returning the placeholder count.
func parseText(input string) (Statement, int, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, 0, err
	}
	return parseToks(toks)
}

// parseToks parses an already-lexed statement.
func parseToks(toks []token) (Statement, int, error) {
	p := &parser{toks: toks}
	stmt, err := p.statement()
	if err != nil {
		return nil, 0, err
	}
	p.acceptOp(";")
	if p.peek().kind != tEOF {
		return nil, 0, p.errf("unexpected %s after statement", p.peek())
	}
	return stmt, p.params, nil
}

type parser struct {
	toks   []token
	i      int
	params int // `?` placeholders seen so far, in textual order
}

func (p *parser) peek() token { return p.toks[p.i] }

func (p *parser) next() token {
	t := p.toks[p.i]
	if t.kind != tEOF {
		p.i++
	}
	return t
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sql: "+format, args...)
}

// acceptKw consumes the next token if it is the given keyword
// (case-insensitive identifier).
func (p *parser) acceptKw(kw string) bool {
	t := p.peek()
	if t.kind == tIdent && strings.EqualFold(t.text, kw) {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return p.errf("expected %s, got %s", strings.ToUpper(kw), p.peek())
	}
	return nil
}

func (p *parser) acceptOp(op string) bool {
	t := p.peek()
	if t.kind == tOp && t.text == op {
		p.i++
		return true
	}
	return false
}

func (p *parser) expectOp(op string) error {
	if !p.acceptOp(op) {
		return p.errf("expected %q, got %s", op, p.peek())
	}
	return nil
}

func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.kind != tIdent {
		return "", p.errf("expected identifier, got %s", t)
	}
	p.i++
	return t.text, nil
}

func (p *parser) statement() (Statement, error) {
	t := p.peek()
	if t.kind != tIdent {
		return nil, p.errf("expected statement, got %s", t)
	}
	switch strings.ToLower(t.text) {
	case "create":
		return p.createTable()
	case "drop":
		p.i++
		if err := p.expectKw("table"); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &DropTable{Name: name}, nil
	case "prepare":
		return p.prepare()
	case "execute":
		return p.execute()
	case "deallocate":
		p.i++
		p.acceptKw("prepare")
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &Deallocate{Name: name}, nil
	case "insert":
		return p.insert()
	case "select":
		return p.selectStmt()
	case "update":
		return p.update()
	case "delete":
		return p.deleteStmt()
	case "begin", "start":
		p.i++
		p.acceptKw("transaction")
		p.acceptKw("work")
		return &Begin{}, nil
	case "commit":
		p.i++
		p.acceptKw("work")
		return &Commit{}, nil
	case "rollback", "abort":
		p.i++
		p.acceptKw("work")
		return &Rollback{}, nil
	case "show":
		p.i++
		if err := p.expectKw("tables"); err != nil {
			return nil, err
		}
		return &ShowTables{}, nil
	default:
		return nil, p.errf("unknown statement %q", t.text)
	}
}

var typeNames = map[string]btrim.ColumnType{
	"int": btrim.Int64Type, "integer": btrim.Int64Type, "bigint": btrim.Int64Type, "int64": btrim.Int64Type,
	"float": btrim.Float64Type, "double": btrim.Float64Type, "real": btrim.Float64Type, "float64": btrim.Float64Type,
	"string": btrim.StringType, "text": btrim.StringType, "varchar": btrim.StringType, "char": btrim.StringType,
	"bytes": btrim.BytesType, "blob": btrim.BytesType,
}

// createTable parses both the SQL form
//
//	CREATE TABLE t (a INT, b STRING, PRIMARY KEY (a))
//
// and the short form
//
//	create table t (a int, b string) key (a)
func (p *parser) createTable() (Statement, error) {
	p.i++ // create
	if err := p.expectKw("table"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	stmt := &CreateTable{Name: name}
	for {
		if p.acceptKw("primary") {
			if err := p.expectKw("key"); err != nil {
				return nil, err
			}
			pk, err := p.parenIdentList()
			if err != nil {
				return nil, err
			}
			stmt.PrimaryKey = pk
		} else {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			tname, err := p.ident()
			if err != nil {
				return nil, err
			}
			typ, ok := typeNames[strings.ToLower(tname)]
			if !ok {
				return nil, p.errf("unknown column type %q", tname)
			}
			// Tolerate a length suffix: VARCHAR(30), CHAR(2).
			if p.acceptOp("(") {
				if t := p.next(); t.kind != tInt {
					return nil, p.errf("expected length, got %s", t)
				}
				if err := p.expectOp(")"); err != nil {
					return nil, err
				}
			}
			stmt.Columns = append(stmt.Columns, btrim.Column{Name: col, Type: typ})
		}
		if p.acceptOp(",") {
			continue
		}
		break
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	if p.acceptKw("key") { // short trailing form
		if stmt.PrimaryKey != nil {
			return nil, p.errf("duplicate primary key clause")
		}
		pk, err := p.parenIdentList()
		if err != nil {
			return nil, err
		}
		stmt.PrimaryKey = pk
	}
	if len(stmt.Columns) == 0 {
		return nil, p.errf("table %s has no columns", name)
	}
	if len(stmt.PrimaryKey) == 0 {
		return nil, p.errf("table %s has no primary key", name)
	}
	return stmt, nil
}

func (p *parser) parenIdentList() ([]string, error) {
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	var out []string
	for {
		id, err := p.ident()
		if err != nil {
			return nil, err
		}
		out = append(out, id)
		if p.acceptOp(",") {
			continue
		}
		break
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return out, nil
}

func (p *parser) insert() (Statement, error) {
	p.i++ // insert
	if err := p.expectKw("into"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	stmt := &Insert{Table: name}
	if p.peek().kind == tOp && p.peek().text == "(" {
		cols, err := p.parenIdentList()
		if err != nil {
			return nil, err
		}
		stmt.Columns = cols
	}
	if err := p.expectKw("values"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var row []Literal
		for {
			lit, err := p.literal()
			if err != nil {
				return nil, err
			}
			row = append(row, lit)
			if p.acceptOp(",") {
				continue
			}
			break
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		stmt.Rows = append(stmt.Rows, row)
		if p.acceptOp(",") {
			continue
		}
		break
	}
	return stmt, nil
}

// prepare parses PREPARE name AS <dml>. Only DML can be prepared; the
// placeholder count of the inner statement rides on the node.
func (p *parser) prepare() (Statement, error) {
	p.i++ // prepare
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("as"); err != nil {
		return nil, err
	}
	inner, err := p.statement()
	if err != nil {
		return nil, err
	}
	switch inner.(type) {
	case *Select, *Insert, *Update, *Delete:
	default:
		return nil, p.errf("only SELECT, INSERT, UPDATE and DELETE can be prepared")
	}
	return &Prepare{Name: name, Stmt: inner, NumParams: p.params}, nil
}

// execute parses EXECUTE name [(arg, ...)]. Arguments are plain
// literals — a placeholder inside EXECUTE has nothing to bind it.
func (p *parser) execute() (Statement, error) {
	p.i++ // execute
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	stmt := &Execute{Name: name}
	if p.acceptOp("(") {
		for {
			lit, err := p.literal()
			if err != nil {
				return nil, err
			}
			if lit.Kind == LitParam {
				return nil, p.errf("placeholder not allowed in EXECUTE arguments")
			}
			stmt.Args = append(stmt.Args, lit)
			if p.acceptOp(",") {
				continue
			}
			break
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	return stmt, nil
}

// literal parses a literal value, including a leading unary minus on
// numbers and the `?` placeholder.
func (p *parser) literal() (Literal, error) {
	neg := false
	if p.acceptOp("-") {
		neg = true
	}
	if p.acceptOp("?") {
		idx := p.params
		p.params++
		return Literal{Kind: LitParam, I: int64(idx), Neg: neg}, nil
	}
	t := p.next()
	switch t.kind {
	case tInt:
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return Literal{}, p.errf("bad integer %q: %v", t.text, err)
		}
		if neg {
			v = -v
		}
		return Literal{Kind: LitInt, I: v}, nil
	case tFloat:
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return Literal{}, p.errf("bad float %q: %v", t.text, err)
		}
		if neg {
			v = -v
		}
		return Literal{Kind: LitFloat, F: v}, nil
	case tString:
		if neg {
			return Literal{}, p.errf("cannot negate a string literal")
		}
		return Literal{Kind: LitString, S: t.text}, nil
	case tIdent:
		if !neg && strings.EqualFold(t.text, "null") {
			return Literal{Kind: LitNull}, nil
		}
		if !neg && strings.EqualFold(t.text, "true") {
			return Literal{Kind: LitInt, I: 1}, nil
		}
		if !neg && strings.EqualFold(t.text, "false") {
			return Literal{Kind: LitInt, I: 0}, nil
		}
		return Literal{}, p.errf("expected literal, got %s", t)
	default:
		return Literal{}, p.errf("expected literal, got %s", t)
	}
}

func (p *parser) selectStmt() (Statement, error) {
	p.i++ // select
	stmt := &Select{Limit: -1}
	if p.acceptOp("*") {
		stmt.Star = true
	} else {
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			stmt.Columns = append(stmt.Columns, col)
			if p.acceptOp(",") {
				continue
			}
			break
		}
	}
	if err := p.expectKw("from"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	stmt.Table = name
	if stmt.Where, err = p.whereClause(); err != nil {
		return nil, err
	}
	if p.acceptKw("limit") {
		t := p.next()
		if t.kind != tInt {
			return nil, p.errf("expected LIMIT count, got %s", t)
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil || n < 0 {
			return nil, p.errf("bad LIMIT %q", t.text)
		}
		stmt.Limit = n
	}
	return stmt, nil
}

func (p *parser) whereClause() ([]Pred, error) {
	if !p.acceptKw("where") {
		return nil, nil
	}
	var preds []Pred
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if p.acceptKw("in") {
			if err := p.expectOp("("); err != nil {
				return nil, err
			}
			var lits []Literal
			for {
				lit, err := p.literal()
				if err != nil {
					return nil, err
				}
				lits = append(lits, lit)
				if p.acceptOp(",") {
					continue
				}
				break
			}
			if err := p.expectOp(")"); err != nil {
				return nil, err
			}
			preds = append(preds, Pred{Col: col, In: lits})
		} else {
			op, err := p.cmpOp()
			if err != nil {
				return nil, err
			}
			lit, err := p.literal()
			if err != nil {
				return nil, err
			}
			preds = append(preds, Pred{Col: col, Op: op, Lit: lit})
		}
		if p.acceptKw("and") {
			continue
		}
		break
	}
	return preds, nil
}

func (p *parser) cmpOp() (CmpOp, error) {
	t := p.next()
	if t.kind != tOp {
		return 0, p.errf("expected comparison operator, got %s", t)
	}
	switch t.text {
	case "=":
		return OpEq, nil
	case "!=", "<>":
		return OpNe, nil
	case "<":
		return OpLt, nil
	case "<=":
		return OpLe, nil
	case ">":
		return OpGt, nil
	case ">=":
		return OpGe, nil
	default:
		return 0, p.errf("expected comparison operator, got %s", t)
	}
}

func (p *parser) update() (Statement, error) {
	p.i++ // update
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("set"); err != nil {
		return nil, err
	}
	stmt := &Update{Table: name}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp("="); err != nil {
			return nil, err
		}
		a := Assign{Col: col}
		// Arithmetic form: col = ref ± literal. Disambiguate from the
		// NULL/TRUE/FALSE literal idents before treating an ident as a
		// column reference.
		t := p.peek()
		isLitIdent := t.kind == tIdent && (strings.EqualFold(t.text, "null") ||
			strings.EqualFold(t.text, "true") || strings.EqualFold(t.text, "false"))
		if t.kind == tIdent && !isLitIdent {
			p.i++
			a.RefCol = t.text
			opTok := p.next()
			if opTok.kind != tOp || (opTok.text != "+" && opTok.text != "-") {
				return nil, p.errf("expected + or - after column reference, got %s", opTok)
			}
			a.ArithOp = opTok.text[0]
			if a.Lit, err = p.literal(); err != nil {
				return nil, err
			}
		} else {
			if a.Lit, err = p.literal(); err != nil {
				return nil, err
			}
			// Allow literal-rooted arithmetic too: col = 1 + col is not
			// supported; col = 2 + 2 is pointless — reject operators here
			// so mistakes surface at parse time.
		}
		stmt.Assigns = append(stmt.Assigns, a)
		if p.acceptOp(",") {
			continue
		}
		break
	}
	if stmt.Where, err = p.whereClause(); err != nil {
		return nil, err
	}
	return stmt, nil
}

func (p *parser) deleteStmt() (Statement, error) {
	p.i++ // delete
	if err := p.expectKw("from"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	stmt := &Delete{Table: name}
	var err2 error
	if stmt.Where, err2 = p.whereClause(); err2 != nil {
		return nil, err2
	}
	return stmt, nil
}
