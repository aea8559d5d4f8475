#!/usr/bin/env bash
# What benchmark/ pins: the names a PR that may not touch benchmark/ cannot
# rename, retire or reshape.
#
#   scripts/pinned.sh
#
# benchmark/ is frozen for every PR except a `benchmark`-archetype one, and
# it is compiled from the checkout, so every identifier its non-test files
# name has to keep its name and shape. This prints, sorted, with the number
# of places each is named:
#   1. the forecache.MiddlewareConfig fields benchmark/*.go sets or reads
#      (and, as a comment line, the fields it leaves alone — the only ones
#      ROADMAP item 4 can still retire without a benchmark PR);
#   2. every internal/<pkg>.<Ident> it names, and every field or method it
#      uses on a type of an internal package (internal/<pkg>.<Type>.<Member>).
# That is the list the benchmark-archetype PR has to decouple before
# ROADMAP items 1 and 4 can continue. Resolved with go/types from the
# compiler's export data, not by pattern: `cfg.Shards` on a prefetch.Config
# is not a MiddlewareConfig field. Reads only; edits nothing.
set -eu

cd "$(dirname "$0")/.."
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

go list -export -deps -f '{{if .Export}}{{.ImportPath}} {{.Export}}{{end}}' ./benchmark > "$TMP/exports"

cat > "$TMP/pinned.go" <<'EOF'
package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

const root, internal = "forecache", "forecache/internal/"

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "pinned:", err)
		os.Exit(1)
	}
}

// owner names t's package-qualified type when it is (a pointer to) a named
// type of the facade or an internal package, else "".
func owner(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return ""
	}
	if path := n.Obj().Pkg().Path(); path == root || strings.HasPrefix(path, internal) {
		return strings.TrimPrefix(path, root+"/") + "." + n.Obj().Name()
	}
	return ""
}

func main() {
	exports := map[string]string{}
	f, err := os.Open(os.Args[1])
	fatal(err)
	for sc := bufio.NewScanner(f); sc.Scan(); {
		path, file, _ := strings.Cut(sc.Text(), " ")
		exports[path] = file
	}
	fset := token.NewFileSet()
	paths, err := filepath.Glob("benchmark/*.go")
	fatal(err)
	var files []*ast.File
	for _, p := range paths {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, p, nil, 0)
		fatal(err)
		files = append(files, file)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})}
	pkg, err := conf.Check(root+"/benchmark", fset, files, info)
	fatal(err)

	counts := map[string]int{}
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident: // package-level names of internal packages
				if obj := info.Uses[n]; obj != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() &&
					strings.HasPrefix(obj.Pkg().Path(), internal) {
					counts[strings.TrimPrefix(obj.Pkg().Path(), root+"/")+"."+obj.Name()]++
				}
			case *ast.SelectorExpr: // x.Field, x.Method()
				if sel := info.Selections[n]; sel != nil {
					if o := owner(sel.Recv()); o != "" {
						counts[o+"."+n.Sel.Name]++
					}
				}
			case *ast.CompositeLit: // T{Field: ...}
				if o := owner(info.TypeOf(n)); o != "" {
					for _, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if key, ok := kv.Key.(*ast.Ident); ok {
								counts[o+"."+key.Name]++
							}
						}
					}
				}
			}
			return true
		})
	}

	var facade *types.Package
	for _, imp := range pkg.Imports() {
		if imp.Path() == root {
			facade = imp
		}
	}
	if facade == nil {
		fatal(fmt.Errorf("benchmark/ does not import %s", root))
	}
	cfg := facade.Scope().Lookup("MiddlewareConfig").Type().Underlying().(*types.Struct)
	var pinned, free []string
	for i := 0; i < cfg.NumFields(); i++ {
		name := cfg.Field(i).Name()
		if n := counts["forecache.MiddlewareConfig."+name]; n > 0 {
			pinned = append(pinned, fmt.Sprintf("%4d %s", n, name))
		} else {
			free = append(free, name)
		}
	}
	sort.Slice(pinned, func(i, j int) bool { return pinned[i][5:] < pinned[j][5:] })
	fmt.Printf("# MiddlewareConfig fields benchmark/*.go names: %d of %d\n", len(pinned), cfg.NumFields())
	fmt.Println(strings.Join(pinned, "\n"))
	fmt.Printf("# not named: %s\n", strings.Join(free, " "))

	var names []string
	for name := range counts {
		if strings.HasPrefix(name, "internal/") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Printf("# internal/<pkg>.<Ident> and .<Type>.<Member> benchmark/*.go names: %d\n", len(names))
	for _, name := range names {
		fmt.Printf("%4d %s\n", counts[name], name)
	}
}
EOF

go run "$TMP/pinned.go" "$TMP/exports"
