package irmc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// driverFiles may hold the lock, the clock, goroutines and the network;
// every other product file under internal/irmc is core. irmctest is
// test support and is not checked.
var driverFiles = map[string]bool{"endpoint.go": true, "admit.go": true}

// TestCorePurity: outside driverFiles nothing under internal/irmc
// imports sync or the transport, starts a goroutine, reads or waits on
// the clock, or touches the endpoint lock (.Mu) or the transport handle
// (Config.Node): time arrives with a tick or a frame, and what a core
// sends goes through the outbox.
func TestCorePurity(t *testing.T) {
	banned := map[string]bool{"sync": true, "sync/atomic": true, "spider/internal/transport": true}
	clock := map[string]bool{"Now": true, "Since": true, "Until": true, "Sleep": true, "AfterFunc": true, "NewTimer": true, "NewTicker": true}
	checked := map[string]bool{}
	err := filepath.WalkDir(".", func(name string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "irmctest" {
			return fs.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") || driverFiles[name] {
			return nil
		}
		checked[name] = true
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			return err
		}
		timeName := ""
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if banned[path] {
				t.Errorf("%s imports %s", name, path)
			}
			if path == "time" {
				timeName = "time"
				if imp.Name != nil {
					timeName = imp.Name.Name
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				t.Errorf("%s: go statement", fset.Position(n.Pos()))
			case *ast.SelectorExpr:
				if id, ok := n.X.(*ast.Ident); ok && timeName != "" && id.Name == timeName && clock[n.Sel.Name] {
					t.Errorf("%s: time.%s", fset.Position(n.Pos()), n.Sel.Name)
				}
				if n.Sel.Name == "Mu" || n.Sel.Name == "Node" && isConfig(n.X) {
					t.Errorf("%s: .%s", fset.Position(n.Pos()), n.Sel.Name)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"core.go", filepath.Join("rc", "rc.go"), filepath.Join("sc", "sc.go")} {
		if !checked[name] {
			t.Errorf("%s not checked", name)
		}
	}
}

// isConfig reports whether x names an endpoint configuration: cfg, or a
// Cfg field.
func isConfig(x ast.Expr) bool {
	switch x := x.(type) {
	case *ast.Ident:
		return x.Name == "cfg" || x.Name == "Cfg"
	case *ast.SelectorExpr:
		return x.Sel.Name == "Cfg"
	}
	return false
}
