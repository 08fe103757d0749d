package lint

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
	"sync"
)

// A Unit is one typechecked compilation unit: a package together with its
// in-package tests, or the external (package foo_test) test package of a
// directory.
type Unit struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
}

// A Loader parses and typechecks packages of one module using only the
// standard library: module-internal imports are resolved by path mapping
// under the module root, everything else through the compiler's source
// importer. All units share one FileSet so positions compose.
type Loader struct {
	ModuleRoot string
	ModulePath string
	Fset       *token.FileSet

	std     types.Importer
	imports map[string]*types.Package
	loading map[string]bool
	parsed  map[string]*ast.File
}

// The standard library is typechecked once per process, not once per
// Loader: every driver that builds several loaders (linttest creates one
// per Run call) would otherwise re-typecheck fmt, time, sort and
// their transitive deps from source each time, and that work dominated
// the analyzer test suite's wall time. The shared importer owns its own
// FileSet; that is safe because diagnostics only ever anchor at module
// positions, which live in each Loader's Fset — std positions are never
// resolved. The mutex serializes first-miss typechecking from parallel
// tests.
var (
	stdImporterMu sync.Mutex
	stdFset       = token.NewFileSet()
	stdImporter   = importer.ForCompiler(stdFset, "source", nil)
)

// stdImport is the process-wide memoized standard-library importer.
type stdImport struct{}

func (stdImport) Import(path string) (*types.Package, error) {
	stdImporterMu.Lock()
	defer stdImporterMu.Unlock()
	return stdImporter.Import(path)
}

// NewLoader returns a loader for the module rooted at moduleRoot.
func NewLoader(moduleRoot, modulePath string) *Loader {
	return &Loader{
		ModuleRoot: moduleRoot,
		ModulePath: modulePath,
		Fset:       token.NewFileSet(),
		std:        stdImport{},
		imports:    map[string]*types.Package{},
		loading:    map[string]bool{},
		parsed:     map[string]*ast.File{},
	}
}

// FindModule walks up from dir to the enclosing go.mod and returns the
// module root directory and module path.
func FindModule(dir string) (root, path string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: no module line in %s/go.mod", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// Import implements types.Importer: module-internal paths are typechecked
// from source under the module root (non-test files only, matching the go
// tool's import semantics); all other paths go to the stdlib source
// importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := l.imports[path]; ok {
		return pkg, nil
	}
	if path != l.ModulePath && !strings.HasPrefix(path, l.ModulePath+"/") {
		return l.std.Import(path)
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := filepath.Join(l.ModuleRoot, strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/"))
	files, err := l.parseDir(dir, func(name string) bool {
		return !strings.HasSuffix(name, "_test.go")
	})
	if err != nil {
		return nil, err
	}
	pkg, _, err := l.check(path, files)
	if err != nil {
		return nil, err
	}
	l.imports[path] = pkg
	return pkg, nil
}

// parseDir parses every .go file in dir accepted by keep, sorted by name.
func (l *Loader) parseDir(dir string, keep func(string) bool) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || !keep(e.Name()) {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		full := filepath.Join(dir, name)
		f, ok := l.parsed[full]
		if !ok {
			f, err = parser.ParseFile(l.Fset, full, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			l.parsed[full] = f
		}
		files = append(files, f)
	}
	return files, nil
}

// check typechecks files as package path, returning up to the first few
// type errors joined into one error.
func (l *Loader) check(path string, files []*ast.File) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var errs []string
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			if len(errs) < 5 {
				errs = append(errs, err.Error())
			}
		},
	}
	pkg, _ := conf.Check(path, l.Fset, files, info)
	if len(errs) > 0 {
		return nil, nil, fmt.Errorf("lint: typecheck %s:\n  %s", path, strings.Join(errs, "\n  "))
	}
	return pkg, info, nil
}

// LoadDir loads the package in dir as one or two Units: the package with
// its in-package tests, and — when present — the external foo_test
// package. Directories with no .go files yield no units.
func (l *Loader) LoadDir(dir string) ([]*Unit, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	all, err := l.parseDir(dir, func(string) bool { return true })
	if err != nil {
		return nil, err
	}
	if len(all) == 0 {
		return nil, nil
	}
	importPath := l.importPathFor(dir)
	var base, xtest []*ast.File
	for _, f := range all {
		if strings.HasSuffix(f.Name.Name, "_test") {
			xtest = append(xtest, f)
		} else {
			base = append(base, f)
		}
	}
	var units []*Unit
	if len(base) > 0 {
		pkg, info, err := l.check(importPath, base)
		if err != nil {
			return nil, err
		}
		units = append(units, &Unit{
			ImportPath: importPath, Dir: dir, Fset: l.Fset,
			Files: base, Pkg: pkg, Info: info,
		})
	}
	if len(xtest) > 0 {
		pkg, info, err := l.check(importPath+"_test", xtest)
		if err != nil {
			return nil, err
		}
		units = append(units, &Unit{
			ImportPath: importPath + " [xtest]", Dir: dir, Fset: l.Fset,
			Files: xtest, Pkg: pkg, Info: info,
		})
	}
	return units, nil
}

// importPathFor maps a directory under the module root to its import path.
func (l *Loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.ModuleRoot, dir)
	if err != nil || strings.HasPrefix(rel, "..") {
		return filepath.Base(dir)
	}
	if rel == "." {
		return l.ModulePath
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel)
}

// PackageDirs walks root and returns every directory containing .go files,
// skipping hidden directories and testdata trees (matching the go tool's
// ./... semantics).
func PackageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			dir := filepath.Dir(path)
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
	return dirs, nil
}
