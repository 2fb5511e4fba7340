package sql

import (
	"testing"

	"repro/btrim"
)

func TestParseCreateTable(t *testing.T) {
	for _, in := range []string{
		`CREATE TABLE users (id INT, name STRING, score FLOAT, PRIMARY KEY (id))`,
		`CREATE TABLE users (id BIGINT, name VARCHAR(30), score DOUBLE, PRIMARY KEY (id));`,
		`create table users (id int, name string, score float) key (id)`, // terse shell form
	} {
		stmt, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		ct, ok := stmt.(*CreateTable)
		if !ok {
			t.Fatalf("Parse(%q) = %T", in, stmt)
		}
		if ct.Name != "users" || len(ct.Columns) != 3 || len(ct.PrimaryKey) != 1 || ct.PrimaryKey[0] != "id" {
			t.Fatalf("Parse(%q) = %+v", in, ct)
		}
		if ct.Columns[0].Type != btrim.Int64Type || ct.Columns[1].Type != btrim.StringType || ct.Columns[2].Type != btrim.Float64Type {
			t.Fatalf("column types wrong: %+v", ct.Columns)
		}
	}
}

func TestParseInsert(t *testing.T) {
	stmt, err := Parse(`INSERT INTO t (a, b) VALUES (1, 'x'), (-2, ''), (3.5, NULL)`)
	if err != nil {
		t.Fatal(err)
	}
	ins := stmt.(*Insert)
	if ins.Table != "t" || len(ins.Columns) != 2 || len(ins.Rows) != 3 {
		t.Fatalf("insert = %+v", ins)
	}
	if ins.Rows[1][0].Kind != LitInt || ins.Rows[1][0].I != -2 {
		t.Fatalf("negative literal = %+v", ins.Rows[1][0])
	}
	if ins.Rows[1][1].Kind != LitString || ins.Rows[1][1].S != "" {
		t.Fatalf("empty-string literal = %+v", ins.Rows[1][1])
	}
	if ins.Rows[2][0].Kind != LitFloat || ins.Rows[2][1].Kind != LitNull {
		t.Fatalf("row 2 = %+v", ins.Rows[2])
	}
}

func TestParseSelect(t *testing.T) {
	stmt, err := Parse(`SELECT a, b FROM t WHERE a = 1 AND b >= -1.5 AND c != 'x' LIMIT 10`)
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(*Select)
	if sel.Table != "t" || sel.Star || len(sel.Columns) != 2 || sel.Limit != 10 {
		t.Fatalf("select = %+v", sel)
	}
	if len(sel.Where) != 3 {
		t.Fatalf("where = %+v", sel.Where)
	}
	if sel.Where[1].Op != OpGe || sel.Where[1].Lit.F != -1.5 {
		t.Fatalf("pred 1 = %+v", sel.Where[1])
	}
	if sel.Where[2].Op != OpNe || sel.Where[2].Lit.S != "x" {
		t.Fatalf("pred 2 = %+v", sel.Where[2])
	}

	stmt, err = Parse(`SELECT * FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if sel := stmt.(*Select); !sel.Star || sel.Limit != -1 || sel.Where != nil {
		t.Fatalf("select * = %+v", sel)
	}
}

func TestParseUpdateDelete(t *testing.T) {
	stmt, err := Parse(`UPDATE t SET v = v + 1, s = 'x', f = f - 0.5 WHERE id = 7`)
	if err != nil {
		t.Fatal(err)
	}
	up := stmt.(*Update)
	if len(up.Assigns) != 3 {
		t.Fatalf("assigns = %+v", up.Assigns)
	}
	if up.Assigns[0].RefCol != "v" || up.Assigns[0].ArithOp != '+' || up.Assigns[0].Lit.I != 1 {
		t.Fatalf("assign 0 = %+v", up.Assigns[0])
	}
	if up.Assigns[1].RefCol != "" || up.Assigns[1].Lit.S != "x" {
		t.Fatalf("assign 1 = %+v", up.Assigns[1])
	}
	if up.Assigns[2].ArithOp != '-' {
		t.Fatalf("assign 2 = %+v", up.Assigns[2])
	}

	stmt, err = Parse(`DELETE FROM t WHERE id > 5`)
	if err != nil {
		t.Fatal(err)
	}
	del := stmt.(*Delete)
	if del.Table != "t" || len(del.Where) != 1 || del.Where[0].Op != OpGt {
		t.Fatalf("delete = %+v", del)
	}
}

func TestParseTxnControl(t *testing.T) {
	for in, want := range map[string]Statement{
		"BEGIN":             &Begin{},
		"begin transaction": &Begin{},
		"START TRANSACTION": &Begin{},
		"COMMIT":            &Commit{},
		"commit work":       &Commit{},
		"ROLLBACK":          &Rollback{},
		"abort":             &Rollback{},
		"SHOW TABLES":       &ShowTables{},
	} {
		stmt, err := Parse(in)
		if err != nil {
			t.Errorf("Parse(%q): %v", in, err)
			continue
		}
		if got, expect := stmtName(stmt), stmtName(want); got != expect {
			t.Errorf("Parse(%q) = %s, want %s", in, got, expect)
		}
	}
}

func stmtName(s Statement) string {
	switch s.(type) {
	case *Begin:
		return "Begin"
	case *Commit:
		return "Commit"
	case *Rollback:
		return "Rollback"
	case *ShowTables:
		return "ShowTables"
	default:
		return "other"
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{
		``,
		`SELECT`,
		`SELECT FROM t`,
		`SELECT a FROM`,
		`SELECT a FROM t WHERE`,
		`SELECT a FROM t WHERE a`,
		`SELECT a FROM t WHERE a = `,
		`SELECT a FROM t LIMIT -1`,
		`SELECT a FROM t extra`,
		`CREATE TABLE t ()`,
		`CREATE TABLE t (a int)`, // no primary key
		`CREATE TABLE t (a wibble, PRIMARY KEY (a))`,      // bad type
		`CREATE TABLE t (a int, PRIMARY KEY (a)) KEY (a)`, // duplicate pk clause
		`INSERT t VALUES (1)`,                             // missing INTO
		`INSERT INTO t VALUES 1`,                          // missing parens
		`INSERT INTO t VALUES (-'x')`,                     // negated string
		`UPDATE t SET v WHERE id = 1`,                     // missing =
		`UPDATE t SET v = v * 2`,                          // unsupported operator
		`DELETE t WHERE id = 1`,                           // missing FROM
		`DROP t`,                                          // missing TABLE
		`PREPARE p SELECT 1`,                              // missing AS
		`PREPARE p AS BEGIN`,                              // only DML is preparable
		`EXECUTE p (?)`,                                   // placeholder as argument
		`DEALLOCATE`,                                      // missing name
		`SELECT a FROM t WHERE id IN ()`,                  // empty IN list
		`SELECT a FROM t LIMIT ?`,                         // LIMIT is not bindable
		`SELECT a FROM t; SELECT b FROM t`,                // one statement at a time
	} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) should fail", in)
		}
	}
}
