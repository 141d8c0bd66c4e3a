package gravel_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoHostSidePolling keeps polling from creeping back into the host
// runtime: outside the functions listed here, non-test code under the
// guarded packages may not call runtime.Gosched or time.Sleep, and none
// may arm a time.AfterFunc (a timer that wakes a waiter is a poll by
// another name). A host thread that has to wait parks on a park.Event
// (DESIGN.md, "Progress").
func TestNoHostSidePolling(t *testing.T) {
	guarded := []string{"internal/core", "internal/agg", "internal/fabric", "internal/transport", "internal/park"}
	allowed := map[string]string{
		"internal/park/park.go:Wait":                   "the wait primitive's bounded spin",
		"internal/transport/coord_client.go:join":      "the coordinator poll (join)",
		"internal/transport/coord_client.go:dialCoord": "redial back-off before the coordinator listens",
		"internal/transport/fault/fault.go:Write":      "the fault injector's injected delays and stalls",
	}
	used := map[string]bool{}
	fset := token.NewFileSet()
	for _, dir := range guarded {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			file, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					pkg, ok := sel.X.(*ast.Ident)
					if !ok || !(pkg.Name == "runtime" && sel.Sel.Name == "Gosched" || pkg.Name == "time" && (sel.Sel.Name == "Sleep" || sel.Sel.Name == "AfterFunc")) {
						return true
					}
					key := filepath.ToSlash(path) + ":" + fn.Name.Name
					if _, ok := allowed[key]; ok && sel.Sel.Name != "AfterFunc" {
						used[key] = true
					} else {
						t.Errorf("%s: %s.%s in %s: host threads park on a park.Event instead of polling (or extend the allow-list with a reason)",
							fset.Position(sel.Pos()), pkg.Name, sel.Sel.Name, fn.Name.Name)
					}
					return true
				})
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for key, why := range allowed {
		if !used[key] {
			t.Errorf("allow-list entry %s (%s) matches nothing; remove it", key, why)
		}
	}
}
