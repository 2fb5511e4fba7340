package sql

import (
	"fmt"

	"repro/btrim"
)

// Statement is one parsed SQL statement.
type Statement interface{ stmtNode() }

// CreateTable is CREATE TABLE name (col type, ..., PRIMARY KEY (cols)).
// The short `... ) key (cols)` suffix parses to the same node.
type CreateTable struct {
	Name       string
	Columns    []btrim.Column
	PrimaryKey []string
}

// Insert is INSERT INTO t [(cols)] VALUES (lits), (lits), ...
type Insert struct {
	Table   string
	Columns []string // nil = schema order; otherwise must name every column
	Rows    [][]Literal
}

// Select is SELECT cols|* FROM t [WHERE preds] [LIMIT n].
type Select struct {
	Table   string
	Star    bool
	Columns []string
	Where   []Pred
	Limit   int64 // -1 = none
}

// Update is UPDATE t SET col = expr, ... [WHERE preds].
type Update struct {
	Table   string
	Assigns []Assign
	Where   []Pred
}

// Delete is DELETE FROM t [WHERE preds].
type Delete struct {
	Table string
	Where []Pred
}

// Begin, Commit, Rollback control the session transaction.
type Begin struct{}
type Commit struct{}
type Rollback struct{}

// ShowTables lists catalog tables.
type ShowTables struct{}

// DropTable is DROP TABLE name. Like CREATE TABLE it is DDL:
// checkpointed immediately, rejected inside explicit transactions.
type DropTable struct {
	Name string
}

// Prepare is PREPARE name AS <dml>. The inner statement may contain
// `?` placeholders; NumParams counts them in textual order.
type Prepare struct {
	Name      string
	Stmt      Statement
	NumParams int
}

// Execute is EXECUTE name [(args)]. Args are literals (params are not
// allowed here).
type Execute struct {
	Name string
	Args []Literal
}

// Deallocate is DEALLOCATE [PREPARE] name.
type Deallocate struct {
	Name string
}

func (*CreateTable) stmtNode() {}
func (*Insert) stmtNode()      {}
func (*Select) stmtNode()      {}
func (*Update) stmtNode()      {}
func (*Delete) stmtNode()      {}
func (*Begin) stmtNode()       {}
func (*Commit) stmtNode()      {}
func (*Rollback) stmtNode()    {}
func (*ShowTables) stmtNode()  {}
func (*DropTable) stmtNode()   {}
func (*Prepare) stmtNode()     {}
func (*Execute) stmtNode()     {}
func (*Deallocate) stmtNode()  {}

// CmpOp is a comparison operator in a WHERE predicate.
type CmpOp uint8

const (
	OpEq CmpOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

func (op CmpOp) String() string {
	return [...]string{"=", "!=", "<", "<=", ">", ">="}[op]
}

// Pred is one conjunct of a WHERE clause: column op literal, or the
// membership form column IN (lit, ...) when In is non-nil (Op and Lit
// are unused then).
type Pred struct {
	Col string
	Op  CmpOp
	Lit Literal
	In  []Literal
}

// Assign is one SET item: Col = Lit, or the read-modify-write form
// Col = RefCol ± Lit (RefCol != "" selects the arithmetic form), which
// the executor evaluates against the locked current row image so that
// concurrent `SET v = v + 1` sessions never lose increments.
type Assign struct {
	Col     string
	Lit     Literal
	RefCol  string
	ArithOp byte // '+' or '-' when RefCol is set
}

// LitKind classifies literals.
type LitKind uint8

const (
	LitNull LitKind = iota
	LitInt
	LitFloat
	LitString
	// LitParam is a `?` placeholder: I holds the 0-based parameter index
	// (textual order), Neg whether the statement negates it (`- ?`). The
	// value arrives at bind time.
	LitParam
)

// Literal is an untyped SQL literal; the planner coerces it against the
// target column's type.
type Literal struct {
	Kind LitKind
	I    int64
	F    float64
	S    string
	Neg  bool // LitParam only: negate the bound value
}

func (l Literal) String() string {
	switch l.Kind {
	case LitInt:
		return "int literal"
	case LitFloat:
		return "float literal"
	case LitString:
		return "string literal"
	case LitParam:
		return fmt.Sprintf("parameter $%d", l.I+1)
	default:
		return "NULL"
	}
}
