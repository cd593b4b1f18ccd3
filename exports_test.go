package spider_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestExportsReferenced fails on every exported identifier declared
// under internal/ that nothing references outside its own declaration:
// not the root module's code or tests, and not the benchmark driver in
// bench/. A method counts as referenced when its type implements an
// interface that has it, since calls through the interface name the
// interface's method instead (the memnet clock's Less and Swap serve
// heap.Interface, every MarshalWire serves wire.Marshaler). An export
// nothing uses is dead code with a public face: delete it.
//
// It also fails on every exported struct field declared under internal/
// that nothing sets: a field only ever read holds its zero value, so it
// is an option nobody takes or a counter nobody counts. Setting means a
// composite literal (keyed or positional), an assignment, ++ or --,
// taking the field's address, or calling a pointer-receiver method on a
// field that is not a pointer (cs.PayloadBytes.Add). Embedded fields
// and fields with a struct tag are exempt: the first are set through the
// type they embed, the second by a decoder.
func TestExportsReferenced(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	fset := token.NewFileSet()
	dirs := loadDirs(t, fset)
	m := &moduleCheck{
		t:    t,
		fset: fset,
		dirs: dirs,
		pkgs: make(map[string]*types.Package),
		std:  importer.ForCompiler(fset, "source", nil),
		used: make(map[token.Pos]bool),
		set:  make(map[token.Pos]bool),
	}
	paths := slices.Sorted(maps.Keys(dirs))
	for _, p := range paths {
		d := dirs[p]
		if len(d.files) > 0 {
			m.check(p)
		}
		if len(d.tests) > 0 {
			m.typeCheck(p, append(slices.Clone(d.files), d.tests...))
		}
		if len(d.xtests) > 0 {
			m.typeCheck(p+"_test", d.xtests)
		}
	}
	m.markImplementations()
	var unused, unset []string
	for _, p := range paths {
		if !strings.HasPrefix(p, "spider/internal/") {
			continue
		}
		for _, f := range dirs[p].files {
			for _, d := range exportedDecls(f) {
				if !m.used[d.name.Pos()] {
					unused = append(unused, fset.Position(d.name.Pos()).String()+": "+d.name.Name)
				}
			}
			for _, id := range settableFields(f) {
				if m.used[id.Pos()] && !m.set[id.Pos()] {
					unset = append(unset, fset.Position(id.Pos()).String()+": "+id.Name)
				}
			}
		}
	}
	for _, u := range unused {
		t.Errorf("exported but never referenced: %s", u)
	}
	for _, u := range unset {
		t.Errorf("exported field never set: %s", u)
	}
}

// settableFields lists a file's exported struct fields that the set rule
// applies to: named, untagged fields of its top-level struct types.
func settableFields(f *ast.File) []*ast.Ident {
	var out []*ast.Ident
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			return false
		case *ast.StructType:
			for _, fl := range n.Fields.List {
				if fl.Tag != nil {
					continue
				}
				for _, id := range fl.Names {
					if id.IsExported() {
						out = append(out, id)
					}
				}
			}
		}
		return true
	})
	return out
}

// pkgDir is one directory's Go files, split the way the go tool builds
// them: the package, its in-package tests, its external tests.
type pkgDir struct {
	files, tests, xtests []*ast.File
}

// loadDirs parses every Go file of the root module and of bench/ that
// the default build context selects, keyed by import path (bench/ is a
// module of its own named spider/bench, so the paths line up).
func loadDirs(t *testing.T, fset *token.FileSet) map[string]*pkgDir {
	t.Helper()
	dirs := make(map[string]*pkgDir)
	err := filepath.WalkDir(".", func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := e.Name()
		if e.IsDir() {
			if p != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		dir := filepath.Dir(p)
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		imp := path.Join("spider", filepath.ToSlash(dir))
		d := dirs[imp]
		if d == nil {
			d = &pkgDir{}
			dirs[imp] = d
		}
		switch {
		case !strings.HasSuffix(name, "_test.go"):
			d.files = append(d.files, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			d.xtests = append(d.xtests, f)
		default:
			d.tests = append(d.tests, f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// moduleCheck type-checks the module package by package and records, by
// declaration position, which objects of internal/ are referenced.
// Positions identify an object across the several type-checks of one
// package (alone, and with its in-package tests).
type moduleCheck struct {
	t    *testing.T
	fset *token.FileSet
	dirs map[string]*pkgDir
	pkgs map[string]*types.Package
	std  types.Importer
	used map[token.Pos]bool
	set  map[token.Pos]bool // struct fields something sets
	// named lists the module's named types. Every package it sees, the
	// standard library's included, is searched for interfaces, and ifaces
	// holds the interface literals of the module's code.
	named  []*types.TypeName
	seen   []*types.Package
	ifaces []*types.Interface
}

// Import serves the module's packages from source, each checked once
// when first imported, and the standard library through the source
// importer.
func (m *moduleCheck) Import(p string) (*types.Package, error) {
	if _, ok := m.dirs[p]; ok {
		return m.check(p), nil
	}
	return m.std.Import(p)
}

// check type-checks the package at p once.
func (m *moduleCheck) check(p string) *types.Package {
	if pkg, ok := m.pkgs[p]; ok {
		return pkg
	}
	pkg := m.typeCheck(p, m.dirs[p].files)
	m.pkgs[p] = pkg
	for _, name := range pkg.Scope().Names() {
		if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
			m.named = append(m.named, tn)
		}
	}
	return pkg
}

func (m *moduleCheck) typeCheck(p string, files []*ast.File) *types.Package {
	info := &types.Info{
		Uses:       make(map[*ast.Ident]types.Object),
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(p, m.fset, files, info)
	if err != nil {
		m.t.Fatalf("type-check %s: %v", p, err)
	}
	m.seen = append(m.seen, pkg)
	for _, tv := range info.Types {
		if it, ok := tv.Type.(*types.Interface); ok && tv.IsType() && it.NumMethods() > 0 {
			m.ifaces = append(m.ifaces, it) // an interface literal, such as a type assertion's
		}
	}
	// A use inside the declaration of what it names (a recursive type,
	// a function calling itself) does not count.
	owner := make(map[token.Pos]ast.Node)
	for _, f := range files {
		for _, d := range exportedDecls(f) {
			owner[d.name.Pos()] = d.node
		}
	}
	for id, obj := range info.Uses {
		if obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), "spider/internal/") {
			continue
		}
		if n, ok := owner[obj.Pos()]; ok && id.Pos() >= n.Pos() && id.Pos() < n.End() {
			continue
		}
		m.used[obj.Pos()] = true
	}
	m.markSets(files, info)
	return pkg
}

// markSets records which struct fields the files set.
func (m *moduleCheck) markSets(files []*ast.File, info *types.Info) {
	mark := func(v *types.Var) { m.set[v.Origin().Pos()] = true }
	notPointer := func(e ast.Expr) bool {
		_, ptr := info.Types[e].Type.Underlying().(*types.Pointer)
		return !ptr
	}
	// assign marks the field that storing to e sets, and, where e lies
	// inside a struct or array value, the fields holding that value.
	var assign func(e ast.Expr)
	assign = func(e ast.Expr) {
		switch e := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			if sel := info.Selections[e]; sel != nil && sel.Kind() == types.FieldVal {
				mark(sel.Obj().(*types.Var))
				if notPointer(e.X) {
					assign(e.X)
				}
			}
		case *ast.IndexExpr:
			if _, ok := info.Types[e.X].Type.Underlying().(*types.Array); ok {
				assign(e.X)
			}
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, l := range n.Lhs {
					assign(l)
				}
			case *ast.IncDecStmt:
				assign(n.X)
			case *ast.RangeStmt:
				if n.Tok == token.ASSIGN {
					assign(n.Key)
					if n.Value != nil {
						assign(n.Value)
					}
				}
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					assign(n.X)
				}
			case *ast.SelectorExpr:
				// A pointer-receiver method of a value takes its address.
				sel := info.Selections[n]
				if sel == nil || sel.Kind() != types.MethodVal {
					break
				}
				if _, ptr := sel.Obj().(*types.Func).Signature().Recv().Type().(*types.Pointer); ptr && notPointer(n.X) {
					assign(n.X)
				}
			case *ast.CompositeLit:
				t := info.Types[n].Type
				if p, ok := t.(*types.Pointer); ok {
					t = p.Elem()
				}
				st, ok := t.Underlying().(*types.Struct)
				if !ok {
					break
				}
				for i, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if v, ok := info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
							mark(v)
						}
					} else if i < st.NumFields() {
						mark(st.Field(i))
					}
				}
			}
			return true
		})
	}
}

// markImplementations marks, for every named module type that
// implements an interface, the methods that interface names.
func (m *moduleCheck) markImplementations() {
	ifaces := m.ifaces
	visited := make(map[*types.Package]bool)
	var visit func(pkg *types.Package)
	visit = func(pkg *types.Package) {
		if visited[pkg] {
			return
		}
		visited[pkg] = true
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
				if it, ok := n.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range m.seen {
		visit(pkg)
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, tn := range m.named {
		n, ok := tn.Type().(*types.Named)
		if !ok || n.TypeParams().Len() > 0 || types.IsInterface(n) {
			continue
		}
		ptr := types.NewPointer(n)
		for _, it := range ifaces {
			if !types.Implements(n, it) && !types.Implements(ptr, it) {
				continue
			}
			for i := range it.NumMethods() {
				meth := it.Method(i)
				if obj, _, _ := types.LookupFieldOrMethod(ptr, true, meth.Pkg(), meth.Name()); obj != nil {
					m.used[obj.Pos()] = true
				}
			}
		}
	}
}

// exportedDecl is one exported name and the declaration it belongs to.
type exportedDecl struct {
	name *ast.Ident
	node ast.Node
}

// exportedDecls lists a file's exported names: functions and methods,
// types, constants and variables, and the exported fields of its struct
// types. An interface's methods are its contract, not separate names:
// the interface is checked as a whole.
func exportedDecls(f *ast.File) []exportedDecl {
	var out []exportedDecl
	add := func(id *ast.Ident, n ast.Node) {
		if id.IsExported() {
			out = append(out, exportedDecl{id, n})
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			add(d.Name, d)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					add(s.Name, s)
					st, ok := s.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, fl := range st.Fields.List {
						for _, id := range fl.Names {
							add(id, fl)
						}
					}
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add(id, s)
					}
				}
			}
		}
	}
	return out
}
