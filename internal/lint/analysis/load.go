package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package.
type Package struct {
	// Path is the import path (or the bare directory name for packages
	// outside the module, e.g. analysistest fixtures).
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of the enclosing module without
// external dependencies: module-internal imports are resolved from the
// module root and type-checked from source recursively; standard-library
// imports go through the stdlib source importer. Loaded packages are
// memoized, so the (expensive) stdlib type-checking happens once per
// Loader.
type Loader struct {
	Fset       *token.FileSet
	ModulePath string
	ModuleRoot string

	std  types.Importer
	pkgs map[string]*Package // by import path
}

// NewLoader builds a loader for the module whose root (the directory
// holding go.mod) contains or equals dir.
func NewLoader(dir string) (*Loader, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		ModulePath: modPath,
		ModuleRoot: root,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       map[string]*Package{},
	}, nil
}

// findModule walks up from dir to the first go.mod and reads its module
// path.
func findModule(dir string) (root, modPath string, err error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("no module line in %s/go.mod", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("no go.mod above %s", dir)
		}
		d = parent
	}
}

// LoadDir loads the package in dir. Directories inside the module get
// their real import path; others (fixture trees) are keyed by directory.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	path := abs
	if rel, err := filepath.Rel(l.ModuleRoot, abs); err == nil && !strings.HasPrefix(rel, "..") {
		path = l.ModulePath
		if rel != "." {
			path = l.ModulePath + "/" + filepath.ToSlash(rel)
		}
	}
	return l.load(path, abs)
}

// Import implements types.Importer so module-internal dependencies of a
// loaded package are themselves loaded from source.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		dir := filepath.Join(l.ModuleRoot, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")))
		p, err := l.load(path, dir)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

func (l *Loader) load(path, dir string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	l.pkgs[path] = nil // cycle guard
	files, err := parseDir(l.Fset, dir)
	if err != nil {
		delete(l.pkgs, path)
		return nil, err
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		delete(l.pkgs, path)
		return nil, fmt.Errorf("type-checking %s: %v", dir, err)
	}
	p := &Package{Path: path, Dir: dir, Fset: l.Fset, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = p
	return p, nil
}

// parseDir parses the non-test Go files of one directory in name order.
func parseDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") ||
			strings.HasSuffix(n, "_test.go") || strings.HasPrefix(n, ".") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// PackageDirs lists, relative to root, every directory under root holding
// a non-test Go package, skipping testdata, hidden and vendor trees and
// nested modules (a subdirectory with its own go.mod belongs to another
// module, as with the go command's ./... pattern). It is the driver's
// "./..." expansion.
func PackageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p == root {
				return nil
			}
			name := d.Name()
			if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".go") && !strings.HasSuffix(d.Name(), "_test.go") {
			dir := filepath.Dir(p)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	// WalkDir visits files in order, so dirs may hold duplicates only if
	// interleaved; dedupe after sorting.
	out := dirs[:0]
	for _, d := range dirs {
		if len(out) == 0 || out[len(out)-1] != d {
			out = append(out, d)
		}
	}
	return out, nil
}
