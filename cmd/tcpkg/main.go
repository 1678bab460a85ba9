// Command tcpkg is the Two-Chains package tool (paper §IV). It builds
// installable package files from source directories of canonically
// named elements — jam_NAME.amc files (mobile active message
// functions) and ried_NAME.rdc files (relocatable interface
// distributions) — and it lists and inspects the application packages
// registered in-tree via the tcapp authoring layer (tcbench, kvstore,
// histo, ...), printing their elements, exported namespaces, and frame
// sizes.
//
// Usage:
//
//	tcpkg list
//	tcpkg build -name mypkg -src ./src/mypkg -o mypkg.tcpkg
//	tcpkg inspect mypkg.tcpkg      (a built package file)
//	tcpkg inspect kvstore          (a tcapp-registered app)
//	tcpkg gensrc -dir DIR
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"twochains/internal/core"
	"twochains/internal/tcapp"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "list":
		list()
	case "build":
		build(os.Args[2:])
	case "inspect":
		inspect(os.Args[2:])
	case "gensrc":
		gensrc(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  tcpkg list                      (registered application packages)
  tcpkg build -name NAME -src DIR [-o FILE]
  tcpkg inspect FILE-or-APPNAME
  tcpkg gensrc -dir DIR           (write the canonical tcbench sources)`)
	os.Exit(2)
}

// list builds every registered app and prints a one-line summary each.
func list() {
	for _, name := range tcapp.Names() {
		app, _ := tcapp.Lookup(name)
		pkg, err := app.Build()
		if err != nil {
			fmt.Printf("%-10s BUILD ERROR: %v\n", name, err)
			continue
		}
		jams, rieds := 0, 0
		maxFrame := 0
		for _, e := range pkg.Elements {
			switch e.Kind {
			case core.ElemJam:
				jams++
				if n, err := core.InjectedFrameLen(e, 0); err == nil && n > maxFrame {
					maxFrame = n
				}
			case core.ElemRied:
				rieds++
			}
		}
		oracle := " "
		if app.NewOracle != nil {
			oracle = "*"
		}
		fmt.Printf("%-10s %d jams, %d rieds, max frame %4dB %s %s\n",
			name, jams, rieds, maxFrame, oracle, app.Doc)
	}
	fmt.Println("(* = ships a native oracle; frame sizes are zero-payload injected frames)")
}

// gensrc writes the benchmark package sources to a directory, so the full
// source -> tcpkg -> install flow can be exercised from the shell.
func gensrc(args []string) {
	fs := flag.NewFlagSet("gensrc", flag.ExitOnError)
	dir := fs.String("dir", "", "destination directory")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	if *dir == "" {
		usage()
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fatal(err)
	}
	for name, src := range core.BenchPackageSources() {
		if err := os.WriteFile(filepath.Join(*dir, name), []byte(src), 0o644); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", filepath.Join(*dir, name))
	}
}

func build(args []string) {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	name := fs.String("name", "", "package name")
	src := fs.String("src", "", "source directory of jam_*.amc and ried_*.rdc files")
	out := fs.String("o", "", "output file (default NAME.tcpkg)")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	if *name == "" || *src == "" {
		usage()
	}
	entries, err := os.ReadDir(*src)
	if err != nil {
		fatal(err)
	}
	sources := map[string]string{}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		fn := e.Name()
		ok := false
		for _, suffix := range []string{".amc", ".rdc", ".ams", ".rds"} {
			if strings.HasSuffix(fn, suffix) {
				ok = true
				break
			}
		}
		if !ok {
			continue
		}
		data, err := os.ReadFile(filepath.Join(*src, fn))
		if err != nil {
			fatal(err)
		}
		sources[fn] = string(data)
	}
	if len(sources) == 0 {
		fatal(fmt.Errorf("no element sources (jam_*.amc / ried_*.rdc) in %s", *src))
	}
	pkg, err := core.BuildPackage(*name, sources)
	if err != nil {
		fatal(err)
	}
	path := *out
	if path == "" {
		path = *name + ".tcpkg"
	}
	if err := os.WriteFile(path, pkg.Encode(), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("built package %s -> %s\n", *name, path)
	describe(pkg)
}

// inspect describes a built package file, or — when the argument names
// a tcapp-registered app instead of a file — a freshly built registry
// package.
func inspect(args []string) {
	if len(args) != 1 {
		usage()
	}
	arg := args[0]
	if _, statErr := os.Stat(arg); statErr != nil {
		if app, ok := tcapp.Lookup(arg); ok {
			pkg, err := app.Build()
			if err != nil {
				fatal(err)
			}
			fmt.Printf("package %s (tcapp registry)  %s\n", pkg.Name, app.Doc)
			describe(pkg)
			return
		}
		fatal(fmt.Errorf("%s is neither a readable file nor a registered app (registered: %v)",
			arg, tcapp.Names()))
	}
	data, err := os.ReadFile(arg)
	if err != nil {
		fatal(err)
	}
	pkg, err := core.DecodePackage(data)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", arg, err))
	}
	fmt.Printf("package %s\n", pkg.Name)
	describe(pkg)
}

func describe(pkg *core.Package) {
	for _, e := range pkg.Elements {
		switch e.Kind {
		case core.ElemJam:
			frame, _ := core.InjectedFrameLen(e, 0)
			fmt.Printf("  jam  %-24s id=%d shipped=%dB frame>=%dB got=%d externs=%v\n",
				e.Name, e.ID, e.Jam.ShippedSize(), frame, len(e.Jam.Got), e.Jam.Externs())
		case core.ElemRied:
			names := make([]string, 0, len(e.Ried.Exports))
			for _, s := range e.Ried.Exports {
				names = append(names, s.Name)
			}
			sort.Strings(names)
			fmt.Printf("  ried %-24s id=%d image=%dB namespace=%v\n",
				e.Name, e.ID, e.Ried.TotalSize, names)
		}
	}
	if pkg.LocalLib != nil {
		fmt.Printf("  local function library: %dB text, %d exports\n",
			pkg.LocalLib.TextLen, len(pkg.LocalLib.Exports))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tcpkg:", err)
	os.Exit(1)
}
