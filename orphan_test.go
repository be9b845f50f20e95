package vpindex_test

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// orphanAllowed lists the package-level names that no non-test code uses
// and that stay anyway, each with its reason. Keys are the import path below
// the module root, a dot, and the name; a method is Type.Method. An entry
// whose name is used, or no longer declared, fails the test: the list only
// shrinks by deleting lines.
var orphanAllowed = map[string]string{
	"internal/bptree.Tree.CheckInvariants":          "structural oracle of the B+-tree tests and FuzzTreeOps",
	"internal/bptree.Tree.Height":                   "the bptree and bxtree tests read the height for their page budgets",
	"internal/geom.Circle.ContainsPoint":            "assertion helper of the model query tests",
	"internal/geom.RotationByAngle":                 "builds the rotated frames of the geom and model transform tests",
	"internal/geom.UnionAll":                        "reference that the tprtree tests hold the raw pageBound bit-equal to",
	"internal/model.BruteForce.Get":                 "the oracle's lookup: root oracle tests read expected records through it",
	"internal/model.NewBruteForce":                  "brute-force oracle of the root, core, bxtree and tprtree tests",
	"internal/monitor.Filter.NumClasses":            "read by the root test seam SubscriptionFilterClasses (export_test.go)",
	"internal/storage.FaultInjector.InjectedFaults": "fault-plane test support: the root health tests count injected faults",
	"internal/storage.FaultInjector.SyncPoints":     "kill-matrix test support: the root, wal and ckpt tests enumerate sync points",
	"internal/storage.NewScriptedInjector":          "fault-plane test support of the root, wal and storage tests",
	"internal/storage.NewSeededInjector":            "fault-plane test support of the root chaos oracle",
	"internal/tprtree.Tree.CheckInvariants":         "structural oracle of the TPR*-tree tests and FuzzTreeOps",
	"internal/workload.Generator.IntervalQueries":   "query generator of the root oracle grid and the workload tests",
	"internal/workload.Generator.MovingQueries":     "query generator of the root oracle grid and the bench and workload tests",
}

// TestNoOrphanFuncs type-checks every non-test Go file of this module,
// cmd/ and examples/ included, and of the benchmark module beside it, and
// fails on each package-level func, method, type, const or var that no
// non-test code of either module uses. The root package's exported API is
// exempt (TestPublicSurface pins it). A use inside the name's own
// declaration does not count. A method that implements an interface counts
// as used when the interface's method does: a standard-library interface
// always (error, fmt.Stringer, heap.Interface, ...), one of this module's
// when it is called through the interface or on some implementation. So an
// interface method that only tests call is flagged too, with every
// implementation of it.
func TestNoOrphanFuncs(t *testing.T) {
	s := newModuleScan(t)
	for _, p := range slices.Sorted(maps.Keys(s.dirs)) {
		if _, err := s.Import(p); err != nil {
			t.Fatal(err)
		}
	}

	orphans := s.orphans()
	var missing []string
	for _, o := range orphans {
		if _, ok := orphanAllowed[o.name]; !ok {
			missing = append(missing, fmt.Sprintf("%s (%s)", o.name, o.pos))
		}
	}
	var stale []string
	for name := range orphanAllowed {
		if !slices.ContainsFunc(orphans, func(o orphan) bool { return o.name == name }) {
			stale = append(stale, name)
		}
	}
	slices.Sort(stale)
	if len(missing) > 0 {
		t.Errorf("%d package-level names have no non-test use: delete them, move them into a _test.go file, or allowlist them in orphanAllowed with the reason they stay:\n\t%s",
			len(missing), strings.Join(missing, "\n\t"))
	}
	if len(stale) > 0 {
		t.Errorf("orphanAllowed names that are used or no longer declared; delete their lines:\n\t%s", strings.Join(stale, "\n\t"))
	}
}

// newModuleScan returns a scan that knows the directory of every package of
// this module and of the benchmark module beside it; Import type-checks a
// package and its imports from source on first use.
func newModuleScan(t *testing.T) *orphanScan {
	s := &orphanScan{
		fset: token.NewFileSet(),
		std:  importer.ForCompiler(token.NewFileSet(), "source", nil),
		dirs: map[string]string{},
		pkgs: map[string]*types.Package{},
		info: &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		if path == "." {
			s.dirs["repro"] = path
		} else {
			s.dirs["repro/"+filepath.ToSlash(path)] = path
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

type orphan struct{ name, pos string }

// orphanScan type-checks the module's packages from source, every one
// against the same types.Info, so that an object has one identity across
// packages and both modules.
type orphanScan struct {
	fset    *token.FileSet
	std     types.Importer
	dirs    map[string]string // import path -> directory, both modules
	pkgs    map[string]*types.Package
	files   []*ast.File
	info    *types.Info
	stdPkgs []*types.Package
}

func (s *orphanScan) Import(path string) (*types.Package, error) {
	if p, ok := s.pkgs[path]; ok {
		return p, nil
	}
	dir, ok := s.dirs[path]
	if !ok {
		p, err := s.std.Import(path)
		if err == nil {
			s.pkgs[path] = p
			s.stdPkgs = append(s.stdPkgs, p)
		}
		return p, err
	}
	pkgs, err := parser.ParseDir(s.fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return nil, err
	}
	if len(pkgs) > 1 {
		return nil, fmt.Errorf("%s: %d packages", dir, len(pkgs))
	}
	var files []*ast.File
	for _, p := range pkgs {
		for _, f := range p.Files {
			files = append(files, f)
		}
	}
	conf := types.Config{Importer: s}
	p, err := conf.Check(path, s.fset, files, s.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	s.pkgs[path] = p
	s.files = append(s.files, files...)
	return p, nil
}

func (s *orphanScan) module(p *types.Package) bool {
	_, ok := s.dirs[p.Path()]
	return ok
}

// orphans returns the module's package-level names that have no use
// outside their own declaration, sorted by name.
func (s *orphanScan) orphans() []orphan {
	// own holds, per object, the source ranges whose uses of it do not
	// count: its declaration, and for a type its methods' receivers.
	type span struct{ lo, hi token.Pos }
	own := map[types.Object][]span{}
	for _, f := range s.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						obj := s.info.Defs[ts.Name]
						own[obj] = append(own[obj], span{ts.Pos(), ts.End()})
					}
				}
			case *ast.FuncDecl:
				obj := s.info.Defs[d.Name]
				own[obj] = append(own[obj], span{d.Pos(), d.End()})
				if d.Recv == nil {
					continue
				}
				rt := d.Recv.List[0].Type
				if st, ok := rt.(*ast.StarExpr); ok {
					rt = st.X
				}
				if id, ok := rt.(*ast.Ident); ok {
					obj := s.info.Uses[id]
					own[obj] = append(own[obj], span{id.Pos(), id.End()})
				}
			}
		}
	}
	used := map[types.Object]bool{}
	for id, obj := range s.info.Uses {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		if obj.Pkg() == nil || !s.module(obj.Pkg()) {
			continue
		}
		if !slices.ContainsFunc(own[obj], func(sp span) bool { return sp.lo <= id.Pos() && id.Pos() < sp.hi }) {
			used[obj] = true
		}
	}

	// The interfaces a method may implement: error, the exported interfaces
	// of the standard packages the module imports, the methods errors.Is and
	// errors.Unwrap look for, and every interface of the module, named or
	// literal (each of its methods is a Def whose receiver is the interface).
	errType := types.Universe.Lookup("error").Type()
	ifaces := map[*types.Interface]bool{errType.Underlying().(*types.Interface): true}
	for _, p := range s.stdPkgs {
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces[it] = true
				}
			}
		}
	}
	param := func(t types.Type) *types.Tuple { return types.NewTuple(types.NewParam(token.NoPos, nil, "", t)) }
	for _, m := range []*types.Func{
		types.NewFunc(token.NoPos, nil, "Unwrap", types.NewSignatureType(nil, nil, nil, nil, param(errType), false)),
		types.NewFunc(token.NoPos, nil, "Is", types.NewSignatureType(nil, nil, nil, param(errType), param(types.Typ[types.Bool]), false)),
	} {
		ifaces[types.NewInterfaceType([]*types.Func{m}, nil).Complete()] = true
	}
	ifaceMethod := map[types.Object]bool{}
	for _, obj := range s.info.Defs {
		if fn, ok := obj.(*types.Func); ok && s.module(fn.Pkg()) {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				if it, ok := recv.Type().Underlying().(*types.Interface); ok {
					ifaceMethod[fn] = true
					ifaces[it] = true
				}
			}
		}
	}

	// Every package-level object the scan judges, with the methods of its
	// named types; the root package's exported API is not judged.
	exempt := func(obj types.Object, recv *types.TypeName) bool {
		return obj.Pkg().Path() == "repro" && obj.Exported() && (recv == nil || recv.Exported())
	}
	var decls []types.Object
	var concrete []*types.Named
	for _, path := range slices.Sorted(maps.Keys(s.dirs)) {
		p := s.pkgs[path]
		for _, name := range p.Scope().Names() {
			obj := p.Scope().Lookup(name)
			if name == "main" && p.Name() == "main" {
				continue
			}
			if !exempt(obj, nil) {
				decls = append(decls, obj)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			if it, ok := named.Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumExplicitMethods(); i++ {
					if m := it.ExplicitMethod(i); !exempt(m, tn) {
						decls = append(decls, m)
					}
				}
				continue
			}
			concrete = append(concrete, named)
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); !exempt(m, tn) {
					decls = append(decls, m)
				}
			}
		}
	}

	// implements maps a concrete method to the interface methods it
	// implements, and implementedBy the other way round. An interface
	// method counts as used when it is called, through the interface or on
	// an implementation; a standard one always does.
	implements := map[types.Object][]*types.Func{}
	implementedBy := map[types.Object][]*types.Func{}
	for _, n := range concrete {
		ptr := types.NewPointer(n)
		for it := range ifaces {
			if !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				im := it.Method(i)
				obj, _, _ := types.LookupFieldOrMethod(ptr, false, im.Pkg(), im.Name())
				cm := obj.(*types.Func)
				implements[cm] = append(implements[cm], im)
				implementedBy[im] = append(implementedBy[im], cm)
			}
		}
	}
	ifaceUsed := func(im *types.Func) bool {
		return im.Pkg() == nil || !s.module(im.Pkg()) || used[im] ||
			slices.ContainsFunc(implementedBy[im], func(cm *types.Func) bool { return used[cm] })
	}

	var out []orphan
	for _, obj := range decls {
		if used[obj] {
			continue
		}
		name := obj.Name()
		if fn, ok := obj.(*types.Func); ok {
			if ifaceMethod[fn] && ifaceUsed(fn) || slices.ContainsFunc(implements[fn], ifaceUsed) {
				continue
			}
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				rt := recv.Type()
				if p, ok := rt.(*types.Pointer); ok {
					rt = p.Elem()
				}
				name = rt.(*types.Named).Obj().Name() + "." + name
			}
		}
		pkg := strings.TrimPrefix(strings.TrimPrefix(obj.Pkg().Path(), "repro"), "/")
		pos := s.fset.Position(obj.Pos())
		out = append(out, orphan{pkg + "." + name, fmt.Sprintf("%s:%d", filepath.ToSlash(pos.Filename), pos.Line)})
	}
	slices.SortFunc(out, func(a, b orphan) int { return strings.Compare(a.name, b.name) })
	return out
}
