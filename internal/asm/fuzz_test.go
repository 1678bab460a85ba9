package asm_test

import (
	"bytes"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"twochains/internal/amcc"
	"twochains/internal/asm"
	"twochains/internal/core"
	"twochains/internal/elfobj"
)

// seedSources returns the assembly the in-tree apps assemble: tcbench's
// .ams/.rds elements as written, and what amcc emits for every AMC jam
// (the *Src constants of the tcapp package and tcbench's jam_hello).
func seedSources(tb testing.TB) (srcs []string, emitted int) {
	tb.Helper()
	bench := core.BenchPackageSources()
	names := make([]string, 0, len(bench))
	for name := range bench {
		names = append(names, name)
	}
	sort.Strings(names)
	var amc []string
	for _, name := range names {
		if strings.HasSuffix(name, ".amc") {
			amc = append(amc, bench[name])
		} else {
			srcs = append(srcs, bench[name])
		}
	}
	files, err := filepath.Glob("../tcapp/*.go")
	if err != nil {
		tb.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			tb.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			vs, ok := n.(*ast.ValueSpec)
			if !ok {
				return true
			}
			for i, id := range vs.Names {
				if i >= len(vs.Values) || !strings.HasSuffix(id.Name, "Src") {
					continue
				}
				if lit, ok := vs.Values[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					s, err := strconv.Unquote(lit.Value)
					if err != nil {
						tb.Fatal(err)
					}
					amc = append(amc, s)
				}
			}
			return false
		})
	}
	for _, src := range amc {
		if text, err := amcc.CompileToAsm("seed.amc", src); err == nil {
			srcs = append(srcs, text)
			emitted++
		}
	}
	return srcs, emitted
}

// FuzzAssemble feeds arbitrary source to Assemble. Every input must be
// refused with an *asm.Error, or assemble to an object that passes
// Validate and whose encoding decodes and re-encodes to the same bytes;
// never a panic.
func FuzzAssemble(f *testing.F) {
	srcs, emitted := seedSources(f)
	if emitted < 6 {
		f.Fatalf("amcc emitted %d seeds, want the 6 AMC jams of histo, kvstore and tcbench", emitted)
	}
	for _, src := range srcs {
		if _, err := asm.Assemble("seed.s", src); err != nil {
			f.Fatalf("seed does not assemble: %v", err)
		}
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<14 {
			return
		}
		obj, err := asm.Assemble("fuzz.s", src)
		if err != nil {
			var diag *asm.Error
			if !errors.As(err, &diag) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if err := obj.Validate(); err != nil {
			t.Fatalf("assembled object invalid: %v", err)
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
