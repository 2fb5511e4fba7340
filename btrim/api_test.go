package btrim_test

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/btrim"
)

var update = flag.Bool("update", false, "rewrite testdata/api.txt from the package's exported declarations")

// TestPublicAPI lists every exported declaration of package btrim —
// kinds, func signatures, struct fields and alias targets — and every
// field and method reachable from btrim.Stats, whose tree is declared
// in internal packages, against testdata/api.txt, so the public surface
// changes only as a reviewed diff. Regenerate with:
//
//	go test ./btrim -run 'TestPublicAPI$' -update
func TestPublicAPI(t *testing.T) {
	lines := append(exportedAPI(t, "."), reachable(reflect.TypeOf(btrim.Stats{}), map[reflect.Type]bool{})...)
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"
	const golden = "testdata/api.txt"
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("btrim's exported API differs from %s (rerun with -update if the change is meant):\n%s",
			golden, lineDiff(string(want), got))
	}
}

// exportedAPI returns one line per exported declaration of the
// package in dir, plus one line per exported field or interface method.
func exportedAPI(t *testing.T, dir string) []string {
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var out []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			out = append(out, declLines(decl)...)
		}
	}
	return out
}

func declLines(decl ast.Decl) []string {
	str := types.ExprString
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() {
			return nil
		}
		sig := strings.TrimPrefix(str(d.Type), "func")
		if d.Recv == nil {
			return []string{"func " + d.Name.Name + sig}
		}
		recv := str(d.Recv.List[0].Type)
		if !ast.IsExported(strings.TrimPrefix(recv, "*")) {
			return nil
		}
		return []string{fmt.Sprintf("method (%s) %s%s", recv, d.Name.Name, sig)}
	case *ast.GenDecl:
		var out []string
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if !s.Name.IsExported() {
					continue
				}
				name := "type " + s.Name.Name
				switch ty := s.Type.(type) {
				case *ast.StructType:
					out = append(out, name+" struct")
					for _, f := range ty.Fields.List {
						if len(f.Names) == 0 {
							out = append(out, fmt.Sprintf("%s, embedded %s", name, str(f.Type)))
						}
						for _, n := range f.Names {
							if n.IsExported() {
								out = append(out, fmt.Sprintf("%s, field %s %s", name, n.Name, str(f.Type)))
							}
						}
					}
				case *ast.InterfaceType:
					out = append(out, name+" interface")
					for _, m := range ty.Methods.List {
						for _, n := range m.Names {
							out = append(out, fmt.Sprintf("%s, method %s%s", name, n.Name, strings.TrimPrefix(str(m.Type), "func")))
						}
					}
				default:
					if s.Assign.IsValid() {
						out = append(out, name+" = "+str(s.Type))
					} else {
						out = append(out, name+" "+str(s.Type))
					}
				}
			case *ast.ValueSpec:
				kind := "var"
				if d.Tok == token.CONST {
					kind = "const"
				}
				for i, n := range s.Names {
					if !n.IsExported() {
						continue
					}
					line := kind + " " + n.Name
					if s.Type != nil {
						line += " " + str(s.Type)
					}
					if i < len(s.Values) {
						line += " = " + str(s.Values[i])
					}
					out = append(out, line)
				}
			}
		}
		return out
	}
	return nil
}

// reachable lists the exported fields and methods of struct type t and
// of every struct type it holds, once per type. Methods promoted from
// an embedded field are listed with the embedded type.
func reachable(t reflect.Type, seen map[reflect.Type]bool) []string {
	if seen[t] || t.Kind() != reflect.Struct || t == reflect.TypeOf(time.Time{}) {
		return nil
	}
	seen[t] = true
	var out []string
	promoted := make(map[string]bool)
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		out = append(out, fmt.Sprintf("stats %s.%s %s", t, f.Name, f.Type))
		ft := f.Type
		if ft.Kind() == reflect.Slice {
			ft = ft.Elem()
		}
		if f.Anonymous {
			for j := 0; j < ft.NumMethod(); j++ {
				promoted[ft.Method(j).Name] = true
			}
		}
		out = append(out, reachable(ft, seen)...)
	}
	for i := 0; i < t.NumMethod(); i++ {
		if m := t.Method(i); !promoted[m.Name] {
			// Drop the receiver from the method's func type.
			sig := strings.Replace(m.Type.String(), "func("+t.String(), "func(", 1)
			out = append(out, fmt.Sprintf("stats %s.%s %s", t, m.Name, strings.Replace(sig, "(, ", "(", 1)))
		}
	}
	return out
}

// lineDiff lists the lines only in want (-) and only in got (+).
func lineDiff(want, got string) string {
	in := func(s string) map[string]bool {
		m := make(map[string]bool)
		for _, l := range strings.Split(s, "\n") {
			m[l] = true
		}
		return m
	}
	w, g := in(want), in(got)
	var b strings.Builder
	for _, l := range strings.Split(want, "\n") {
		if !g[l] {
			fmt.Fprintf(&b, "- %s\n", l)
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if !w[l] {
			fmt.Fprintf(&b, "+ %s\n", l)
		}
	}
	return b.String()
}
