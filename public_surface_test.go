package vpindex_test

import (
	"bytes"
	"flag"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/printer"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var updateAPI = flag.Bool("update", false, "rewrite testdata/api.golden")

// TestPublicSurface pins the root package's exported funcs, types and
// methods, as declared in its non-test files, against testdata/api.golden:
// one line per name, sorted. Below them, under their own prefixes (see
// memberLines), it pins what those types carry that their declarations do
// not spell out here: the exported fields of every exported struct type and
// the methods an alias or an embedded field brings in. A name added, removed or re-typed fails here
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
	lines = append(lines, memberLines(t)...)
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

// memberLines type-checks the root package from source and returns one
// "field T.F type" line per exported field of each exported struct type,
// aliases of other packages' structs included, and one "method T.M
// signature" line per exported method that T has without declaring it in
// this package: every method of an alias, and the methods promoted from an
// embedded field. Deleting IOStats.Total in an internal package, or the
// StoreStats.Total it promotes, moves a line here.
func memberLines(t *testing.T) []string {
	pkg, err := newModuleScan(t).Import("repro")
	if err != nil {
		t.Fatal(err)
	}
	qual := func(p *types.Package) string {
		if p == pkg {
			return ""
		}
		return p.Name()
	}
	var lines []string
	for _, name := range pkg.Scope().Names() {
		tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok || !tn.Exported() {
			continue
		}
		typ := tn.Type()
		if st, ok := typ.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					lines = append(lines, "field "+name+"."+f.Name()+" "+types.TypeString(f.Type(), qual))
				}
			}
		}
		if _, ok := typ.Underlying().(*types.Interface); !ok {
			typ = types.NewPointer(typ)
		}
		ms := types.NewMethodSet(typ)
		for i := 0; i < ms.Len(); i++ {
			sel := ms.At(i)
			if !sel.Obj().Exported() || !tn.IsAlias() && len(sel.Index()) == 1 {
				continue
			}
			sig := types.TypeString(sel.Obj().Type(), qual)
			lines = append(lines, "method "+name+"."+sel.Obj().Name()+strings.TrimPrefix(sig, "func"))
		}
	}
	return lines
}
