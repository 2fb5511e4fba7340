// Package sql is the engine's SQL front end: a hand-written lexer and
// recursive-descent parser for a small statement subset (CREATE TABLE,
// INSERT, SELECT, UPDATE, DELETE, BEGIN/COMMIT/ROLLBACK, SHOW TABLES),
// a planner that resolves names against the live catalog, and an
// executor over the public btrim API that routes full-primary-key
// equality predicates to point operations and everything else to the
// vectorized ScanBatches operator with projection pushdown. A Session
// owns the per-connection transaction state machine (autocommit vs
// explicit BEGIN, aborted-until-ROLLBACK) shared by the network server
// and the interactive shell (DESIGN.md §13).
package sql

import (
	"fmt"
	"strings"
)

// tokKind classifies lexer tokens.
type tokKind uint8

const (
	tEOF tokKind = iota
	tIdent
	tInt    // integer literal (digits only; sign is a parser concern)
	tFloat  // float literal
	tString // quoted string, text holds the unquoted value
	tOp     // punctuation or operator, text holds the exact spelling
)

type token struct {
	kind tokKind
	text string
	pos  int // byte offset in the input, for error messages
}

func (t token) String() string {
	switch t.kind {
	case tEOF:
		return "end of statement"
	case tString:
		return fmt.Sprintf("string %q", t.text)
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

// ScanQuoted scans a quoted string starting at s[start] (which must be
// ' or ") and returns the unquoted value and the index just past the
// closing quote. Inside the quotes a backslash escapes the next
// character (\" \' \\ \n \t), and a doubled quote character is the
// SQL-style escape for one literal quote.
func ScanQuoted(s string, start int) (val string, next int, err error) {
	q := s[start]
	var b strings.Builder
	i := start + 1
	for i < len(s) {
		c := s[i]
		switch {
		case c == '\\' && i+1 < len(s):
			e := s[i+1]
			switch e {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			default: // \" \' \\ and any other escaped byte: literal
				b.WriteByte(e)
			}
			i += 2
		case c == q && i+1 < len(s) && s[i+1] == q:
			b.WriteByte(q) // doubled quote: one literal quote
			i += 2
		case c == q:
			return b.String(), i + 1, nil
		default:
			b.WriteByte(c)
			i++
		}
	}
	return "", len(s), fmt.Errorf("unterminated string literal")
}

func isIdentStart(c byte) bool {
	return c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
}

func isIdentCont(c byte) bool { return isIdentStart(c) || isDigit(c) }

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// lex tokenizes one statement. `--` starts a comment running to end of
// line.
func lex(input string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(input) {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < len(input) && input[i+1] == '-':
			for i < len(input) && input[i] != '\n' {
				i++
			}
		case c == '\'' || c == '"':
			val, next, err := ScanQuoted(input, i)
			if err != nil {
				return nil, fmt.Errorf("sql: %v at offset %d", err, i)
			}
			toks = append(toks, token{kind: tString, text: val, pos: i})
			i = next
		case isDigit(c) || (c == '.' && i+1 < len(input) && isDigit(input[i+1])):
			start := i
			isFloat := false
			for i < len(input) && isDigit(input[i]) {
				i++
			}
			if i < len(input) && input[i] == '.' {
				isFloat = true
				i++
				for i < len(input) && isDigit(input[i]) {
					i++
				}
			}
			if i < len(input) && (input[i] == 'e' || input[i] == 'E') {
				j := i + 1
				if j < len(input) && (input[j] == '+' || input[j] == '-') {
					j++
				}
				if j < len(input) && isDigit(input[j]) {
					isFloat = true
					i = j
					for i < len(input) && isDigit(input[i]) {
						i++
					}
				}
			}
			kind := tInt
			if isFloat {
				kind = tFloat
			}
			toks = append(toks, token{kind: kind, text: input[start:i], pos: start})
		case isIdentStart(c):
			start := i
			for i < len(input) && isIdentCont(input[i]) {
				i++
			}
			toks = append(toks, token{kind: tIdent, text: input[start:i], pos: start})
		case c == '<' || c == '>' || c == '!':
			op := string(c)
			if i+1 < len(input) && (input[i+1] == '=' || (c == '<' && input[i+1] == '>')) {
				op = input[i : i+2]
				i++
			}
			i++
			if op == "!" {
				return nil, fmt.Errorf("sql: unexpected %q at offset %d", "!", i-1)
			}
			toks = append(toks, token{kind: tOp, text: op, pos: i - len(op)})
		case strings.IndexByte("(),;*=+-?", c) >= 0:
			toks = append(toks, token{kind: tOp, text: string(c), pos: i})
			i++
		default:
			return nil, fmt.Errorf("sql: unexpected character %q at offset %d", c, i)
		}
	}
	toks = append(toks, token{kind: tEOF, pos: len(input)})
	return toks, nil
}
