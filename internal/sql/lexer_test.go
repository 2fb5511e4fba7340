package sql

import (
	"strings"
	"testing"
)

// QuotedCases is the table of quoting edge cases ScanQuoted is held to.
var QuotedCases = []struct {
	Name string
	In   string // full token starting at offset 0
	Val  string
	Rest string // what follows the closing quote
	Err  bool
}{
	{Name: "simple", In: `"ada"`, Val: "ada"},
	{Name: "single-quoted", In: `'ada'`, Val: "ada"},
	{Name: "empty", In: `""`, Val: ""},
	{Name: "empty-single", In: `''`, Val: ""},
	{Name: "escaped-quote", In: `"say \"hi\""`, Val: `say "hi"`},
	{Name: "doubled-quote", In: `"say ""hi"""`, Val: `say "hi"`},
	{Name: "doubled-single", In: `'it''s'`, Val: "it's"},
	{Name: "backslash", In: `"a\\b"`, Val: `a\b`},
	{Name: "newline-tab", In: `"a\nb\tc"`, Val: "a\nb\tc"},
	{Name: "other-quote-inside", In: `"it's"`, Val: "it's"},
	{Name: "trailing", In: `"ada" 99`, Val: "ada", Rest: ` 99`},
	{Name: "unterminated", In: `"ada`, Err: true},
	{Name: "unterminated-escape", In: `"ada\"`, Err: true},
	{Name: "adjacent", In: `"a" "b"`, Val: "a", Rest: ` "b"`},
}

func TestScanQuoted(t *testing.T) {
	for _, tc := range QuotedCases {
		t.Run(tc.Name, func(t *testing.T) {
			val, next, err := ScanQuoted(tc.In, 0)
			if tc.Err {
				if err == nil {
					t.Fatalf("ScanQuoted(%q) = %q, want error", tc.In, val)
				}
				return
			}
			if err != nil {
				t.Fatalf("ScanQuoted(%q): %v", tc.In, err)
			}
			if val != tc.Val {
				t.Fatalf("ScanQuoted(%q) = %q, want %q", tc.In, val, tc.Val)
			}
			if got := tc.In[next:]; got != tc.Rest {
				t.Fatalf("ScanQuoted(%q) rest = %q, want %q", tc.In, got, tc.Rest)
			}
		})
	}
}

func TestLex(t *testing.T) {
	cases := []struct {
		in   string
		want []string // token texts, EOF omitted
		err  bool
	}{
		{in: `SELECT a, b FROM t WHERE a >= -5`, want: []string{"SELECT", "a", ",", "b", "FROM", "t", "WHERE", "a", ">=", "-", "5"}},
		{in: `a != b <> c`, want: []string{"a", "!=", "b", "<>", "c"}},
		{in: `x = 1.5 y = .5 z = 2e3`, want: []string{"x", "=", "1.5", "y", "=", ".5", "z", "=", "2e3"}},
		{in: `insert into t values ('a''b')`, want: []string{"insert", "into", "t", "values", "(", "a'b", ")"}},
		{in: "a -- trailing comment\nb", want: []string{"a", "b"}},
		{in: `"unterminated`, err: true},
		{in: `a ! b`, err: true},
		{in: "a \x01 b", err: true},
	}
	for _, tc := range cases {
		toks, err := lex(tc.in)
		if tc.err {
			if err == nil {
				t.Errorf("lex(%q) should fail", tc.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("lex(%q): %v", tc.in, err)
			continue
		}
		var texts []string
		for _, tok := range toks {
			if tok.kind == tEOF {
				break
			}
			texts = append(texts, tok.text)
		}
		if strings.Join(texts, "|") != strings.Join(tc.want, "|") {
			t.Errorf("lex(%q) = %q, want %q", tc.in, texts, tc.want)
		}
	}
}

func TestLexNumberKinds(t *testing.T) {
	toks, err := lex("1 2.5 .5 1e3 7")
	if err != nil {
		t.Fatal(err)
	}
	wantKinds := []tokKind{tInt, tFloat, tFloat, tFloat, tInt}
	for i, k := range wantKinds {
		if toks[i].kind != k {
			t.Errorf("token %d (%q) kind = %d, want %d", i, toks[i].text, toks[i].kind, k)
		}
	}
}
