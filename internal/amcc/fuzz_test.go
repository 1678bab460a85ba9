package amcc_test

import (
	"bytes"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"twochains/internal/amcc"
	"twochains/internal/elfobj"
)

// appSources returns the string constants named *Src in the tcapp
// package and in core's benchmark sources: the AMC the in-tree apps
// compile, plus the assembly elements tcbench ships beside it.
func appSources(tb testing.TB) []string {
	tb.Helper()
	files, err := filepath.Glob("../tcapp/*.go")
	if err != nil {
		tb.Fatal(err)
	}
	var srcs []string
	fset := token.NewFileSet()
	for _, path := range append(files, "../core/benchsrc.go") {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			tb.Fatal(err)
		}
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, name := range vs.Names {
					if i >= len(vs.Values) || !strings.HasSuffix(name.Name, "Src") {
						continue
					}
					lit, ok := vs.Values[i].(*ast.BasicLit)
					if !ok || lit.Kind != token.STRING {
						continue
					}
					s, err := strconv.Unquote(lit.Value)
					if err != nil {
						tb.Fatal(err)
					}
					srcs = append(srcs, s)
				}
			}
		}
	}
	return srcs
}

// FuzzCompile feeds arbitrary source to Compile. Every input must be
// refused with an *Error diagnostic, or compile to an object that passes
// Validate and whose encoding decodes and re-encodes to the same bytes;
// never a panic, and never the internal error of generated assembly the
// assembler rejects. The seeds are the sources of the in-tree apps.
func FuzzCompile(f *testing.F) {
	compiled := 0
	for _, src := range appSources(f) {
		if _, err := amcc.Compile("seed.amc", src); err == nil {
			compiled++
		}
		f.Add(src)
	}
	if compiled < 6 {
		f.Fatalf("%d app sources compile, want the 6 AMC jams of histo, kvstore and tcbench", compiled)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<14 {
			return
		}
		obj, err := amcc.Compile("fuzz.amc", src)
		if err != nil {
			var diag *amcc.Error
			if !errors.As(err, &diag) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if err := obj.Validate(); err != nil {
			t.Fatalf("compiled object invalid: %v", err)
		}
		enc := obj.Encode()
		dec, err := elfobj.Decode(enc)
		if err != nil {
			t.Fatalf("encoded object does not decode: %v", err)
		}
		if !bytes.Equal(dec.Encode(), enc) {
			t.Fatal("decoded object re-encodes differently")
		}
	})
}
