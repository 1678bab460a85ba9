// Command tcdisasm disassembles Two-Chains artifacts: relocatable objects
// (.tco), or the jams inside a built package, showing the transformed
// CALLP/LDP GOT-indirect instructions that let code execute at any address
// on a receiver.
//
// Usage:
//
//	tcdisasm object.tco
//	tcdisasm -pkg mypkg.tcpkg -jam jam_iput
package main

import (
	"flag"
	"fmt"
	"os"

	"twochains/internal/core"
	"twochains/internal/elfobj"
	"twochains/internal/isa"
)

func main() {
	pkgFile := flag.String("pkg", "", "package file to read a jam from")
	jamName := flag.String("jam", "", "jam element name inside -pkg")
	flag.Parse()

	if *pkgFile != "" {
		disasmJam(*pkgFile, *jamName)
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tcdisasm object.tco | tcdisasm -pkg file -jam name")
		os.Exit(2)
	}
	data, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	obj, err := elfobj.Decode(data)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", flag.Arg(0), err))
	}
	fmt.Printf("object %s\n.text (%d bytes):\n", obj.Name, len(obj.Text))
	text, err := isa.Disassemble(obj.Text)
	if err != nil {
		fatal(err)
	}
	fmt.Print(text)
	for _, s := range obj.Symbols {
		fmt.Printf("symbol %-24s %s+0x%x %v\n", s.Name, s.Section, s.Value, s.Binding)
	}
	for _, r := range obj.Relocs {
		fmt.Printf("reloc  %-6s %s+0x%x -> %s\n", r.Type, r.Section, r.Offset, obj.Symbols[r.Sym].Name)
	}
}

func disasmJam(pkgFile, jamName string) {
	data, err := os.ReadFile(pkgFile)
	if err != nil {
		fatal(err)
	}
	pkg, err := core.DecodePackage(data)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", pkgFile, err))
	}
	elem, ok := pkg.Element(jamName)
	if !ok || elem.Kind != core.ElemJam {
		fatal(fmt.Errorf("no jam %q in package %s", jamName, pkg.Name))
	}
	j := elem.Jam
	fmt.Printf("jam %s: shipped %dB (GOT %dB + ptr 8B + body %dB), entry +%d\n",
		j.Name, j.ShippedSize(), j.GotTableLen(), len(j.Body), j.Entry)
	for i, g := range j.Got {
		kind := "extern"
		if g.Local {
			kind = fmt.Sprintf("local body+%d", g.Off)
		}
		fmt.Printf("  got[%d] = %s (%s)\n", i, g.Name, kind)
	}
	text, err := isa.Disassemble(j.Body[:j.TextLen])
	if err != nil {
		fatal(err)
	}
	fmt.Print(text)
	if len(j.Body) > j.TextLen {
		fmt.Printf(".rodata (%d bytes): %q\n", len(j.Body)-j.TextLen, j.Body[j.TextLen:])
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tcdisasm:", err)
	os.Exit(1)
}
