// Command sleepfloor is a ratchet on wall-clock waits in tests. It counts
// the time.Sleep calls in every _test.go file under the given roots and
// fails if the total is above the ceiling. Tests that wait on the wall
// clock flake under load and slow the suite; lower the ceiling in the
// Makefile when a change removes some.
//
// Usage:
//
//	go run ./docs/ci/sleepfloor -max 68 .
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	ceiling := flag.Int("max", -1, "most time.Sleep calls test files may hold")
	flag.Parse()
	roots := flag.Args()
	if len(roots) == 0 {
		roots = []string{"."}
	}
	if err := run(*ceiling, roots); err != nil {
		fmt.Fprintln(os.Stderr, "sleepfloor:", err)
		os.Exit(1)
	}
}

func run(ceiling int, roots []string) error {
	if ceiling < 0 {
		return fmt.Errorf("-max is required")
	}
	perFile := map[string]int{}
	total := 0
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata" || name == "vendor") {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, "_test.go") {
				return nil
			}
			n, err := countSleeps(path)
			if err != nil {
				return err
			}
			if n > 0 {
				perFile[path] = n
				total += n
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	fmt.Printf("sleepfloor: %d time.Sleep calls in %d test files (ceiling %d)\n", total, len(perFile), ceiling)
	if total > ceiling {
		paths := make([]string, 0, len(perFile))
		for path := range perFile {
			paths = append(paths, path)
		}
		sort.Strings(paths)
		for _, path := range paths {
			fmt.Printf("  %s: %d\n", path, perFile[path])
		}
		return fmt.Errorf("%d time.Sleep calls in tests, ceiling %d: wait on a channel or the virtual clock instead", total, ceiling)
	}
	return nil
}

// countSleeps counts calls to time.Sleep in one Go file, whatever name the
// file imports package time under. Comments and strings do not count.
func countSleeps(path string) (int, error) {
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
	if err != nil {
		return 0, err
	}
	timeName := ""
	for _, imp := range f.Imports {
		if imp.Path.Value == `"time"` {
			timeName = "time"
			if imp.Name != nil {
				timeName = imp.Name.Name
			}
		}
	}
	if timeName == "" {
		return 0, nil
	}
	n := 0
	ast.Inspect(f, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Sleep" {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == timeName {
			n++
		}
		return true
	})
	return n, nil
}
