package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// A Package is one loaded, type-checked package.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// callers holds the packages whose non-test files count as
	// references for deadexport, readers for writeonly and setters for
	// neverset: the whole module for a package from Load, the fixture
	// alone for one from LoadDir.
	callers *callerSet
}

// A Loader parses and type-checks packages from source. Each module
// package is checked once, in `go list -deps` order, and served from the
// loader's own table to every later package that imports it, so an
// object is the same value in its own package and in every importer's
// Uses. Only the standard library goes through the source importer.
type Loader struct {
	fset   *token.FileSet
	std    types.Importer
	byPath map[string]*Package
	module *callerSet // every module package checked so far
}

// NewLoader returns a Loader for the module around the current working
// directory (the go command resolves module paths, so no network or
// module cache is required).
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{
		fset:   fset,
		std:    importer.ForCompiler(fset, "source", nil),
		byPath: make(map[string]*Package),
		module: &callerSet{},
	}
}

// listedPackage is the slice of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string   //tclint:allow neverset encoding/json sets it
	Dir        string   //tclint:allow neverset encoding/json sets it
	GoFiles    []string //tclint:allow neverset encoding/json sets it
	Standard   bool     //tclint:allow neverset encoding/json sets it
	Match      []string //tclint:allow neverset encoding/json sets it
}

// Load expands the go-list patterns (e.g. "./...") and returns every
// matched package, parsed and type-checked. It checks the whole module
// either way, so deadexport counts callers everywhere in it.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	mod, err := goCmd("list", "-m")
	if err != nil {
		return nil, err
	}
	listed, err := l.list(append(patterns, strings.TrimSpace(string(mod))+"/...")...)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, lp := range listed {
		pkg := l.byPath[lp.ImportPath]
		if pkg == nil || lp.Standard {
			continue
		}
		for _, m := range lp.Match {
			if slices.Contains(patterns, m) {
				pkgs = append(pkgs, pkg)
				break
			}
		}
	}
	return pkgs, nil
}

// list runs `go list -deps` over args and checks every listed module
// package the table does not hold yet, dependencies first.
func (l *Loader) list(args ...string) ([]listedPackage, error) {
	out, err := goCmd(append([]string{"list", "-deps", "-json=ImportPath,Dir,GoFiles,Standard,Match"}, args...)...)
	if err != nil {
		return nil, err
	}
	var listed []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list -json decode: %w", err)
		}
		listed = append(listed, lp)
		if lp.Standard || len(lp.GoFiles) == 0 || l.byPath[lp.ImportPath] != nil {
			continue
		}
		files := make([]string, len(lp.GoFiles))
		for i, f := range lp.GoFiles {
			files[i] = filepath.Join(lp.Dir, f)
		}
		parsed, err := l.parse(files)
		if err != nil {
			return nil, err
		}
		pkg, err := l.check(lp.ImportPath, parsed)
		if err != nil {
			return nil, err
		}
		pkg.callers = l.module
		l.byPath[pkg.Path] = pkg
		l.module.add(pkg)
	}
	return listed, nil
}

// LoadDir type-checks every .go file directly under dir as one package
// with the given import path. Fixture packages live under testdata/
// (invisible to the go tool), so they are addressed by directory; the
// synthetic path lets a fixture opt into path-scoped rules such as
// detsource's simulation-package predicate. Module imports resolve
// through the loader's table; the fixture itself stays out of it.
func (l *Loader) LoadDir(dir, path string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	sort.Strings(files)
	parsed, err := l.parse(files)
	if err != nil {
		return nil, err
	}
	var imports []string
	for _, f := range parsed {
		for _, is := range f.Imports {
			if p, err := strconv.Unquote(is.Path.Value); err == nil && l.byPath[p] == nil {
				imports = append(imports, p)
			}
		}
	}
	if len(imports) > 0 {
		if _, err := l.list(imports...); err != nil {
			return nil, err
		}
	}
	pkg, err := l.check(path, parsed)
	if err != nil {
		return nil, err
	}
	pkg.callers = &callerSet{}
	pkg.callers.add(pkg)
	return pkg, nil
}

func (l *Loader) parse(filenames []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(l.fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

func (l *Loader) check(path string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: importerFunc(func(p string) (*types.Package, error) {
		if pkg := l.byPath[p]; pkg != nil {
			return pkg.Types, nil
		}
		return l.std.Import(p)
	})}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	return &Package{Path: path, Fset: l.fset, Files: files, Types: tpkg, Info: info}, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// goCmd runs the go command and returns its standard output.
func goCmd(args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return stdout.Bytes(), nil
}
