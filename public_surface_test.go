package vpindex_test

import (
	"bytes"
	"flag"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var updateAPI = flag.Bool("update", false, "rewrite testdata/api.golden")

// TestPublicSurface pins the root package's exported funcs, types and
// methods, as declared in its non-test files, against testdata/api.golden:
// one line per name, sorted. A name added, removed or re-typed fails here
// with the lines that moved; rerun with -update only when the change to the
// public API is intended. Test seams (export_test.go) are not part of it.
func TestPublicSurface(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, p := range pkgs {
		for _, f := range p.Files {
			files = append(files, f)
		}
	}
	pkg, err := doc.NewFromFiles(fset, files, "repro")
	if err != nil {
		t.Fatal(err)
	}
	render := func(n any) string {
		var b bytes.Buffer
		if err := printer.Fprint(&b, fset, n); err != nil {
			t.Fatal(err)
		}
		return strings.Join(strings.Fields(b.String()), " ")
	}
	funcLine := func(f *doc.Func) string {
		d := *f.Decl
		d.Doc, d.Body = nil, nil
		return render(&d)
	}
	var lines []string
	for _, f := range pkg.Funcs {
		lines = append(lines, funcLine(f))
	}
	for _, typ := range pkg.Types {
		for _, spec := range typ.Decl.Specs {
			ts := spec.(*ast.TypeSpec)
			if ts.Name.Name != typ.Name {
				continue
			}
			line := "type " + typ.Name
			switch _, isStruct := ts.Type.(*ast.StructType); {
			case ts.Assign.IsValid():
				line += " = " + render(ts.Type)
			case isStruct:
				line += " struct"
			default:
				line += " " + render(ts.Type)
			}
			lines = append(lines, line)
		}
		for _, f := range append(typ.Funcs, typ.Methods...) {
			lines = append(lines, funcLine(f))
		}
	}
	slices.Sort(lines)
	got := strings.Join(lines, "\n") + "\n"

	path := filepath.Join("testdata", "api.golden")
	if *updateAPI {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	var diff strings.Builder
	for _, l := range wantLines {
		if !slices.Contains(lines, l) {
			diff.WriteString("- " + l + "\n")
		}
	}
	for _, l := range lines {
		if !slices.Contains(wantLines, l) {
			diff.WriteString("+ " + l + "\n")
		}
	}
	t.Fatalf("public API drifted from %s (rerun with -update only if the change is intended):\n%s", path, diff.String())
}
