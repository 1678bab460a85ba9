// Command tcrun loads a package onto a simulated two-node system and
// invokes one of its jams — the fastest way to smoke-test a package
// from the shell before deploying it to a cluster. The package comes
// from a built file (-pkg) or straight from the tcapp registry (-app).
//
// Usage:
//
//	tcrun -pkg tcbench.tcpkg -jam jam_sssum -payload 64
//	tcrun -pkg tcbench.tcpkg -jam jam_iput -arg0 42 -payload 256 -injected
//	tcrun -app kvstore -jam kv_put -arg0 7 -arg1 21
//	tcrun -app kvstore -jam kv_put -tenant gold
//
// With -tenant the package installs into that tenant's namespace view
// instead of the base namespace, and the call goes through the tenant's
// handle — the element binds against the tenant's own package instance,
// so another tenant (or the base namespace) could hold a different
// version of the same app without collision.
//
// With -injected the jam takes the full injection path: packed into a
// frame, GOT table bound by the sender, delivered through the simulated
// fabric into a reactive mailbox, and executed from the arrived bytes.
// Without it, the Local Function library copy is invoked by ID. The send
// goes through a pre-resolved tc.Func handle whose future is awaited on
// the simulation engine.
package main

import (
	"flag"
	"fmt"
	"os"

	"twochains/internal/core"
	"twochains/internal/mailbox"
	"twochains/internal/mem"
	"twochains/internal/sim"
	"twochains/internal/tc"
	"twochains/internal/tcapp"
	"twochains/internal/tenant"
)

func main() {
	var (
		pkgFile  = flag.String("pkg", "", "package file (from tcpkg build)")
		appName  = flag.String("app", "", "tcapp-registered application (alternative to -pkg)")
		jam      = flag.String("jam", "", "jam element to run (the jam_ prefix may be omitted)")
		arg0     = flag.Uint64("arg0", 1, "first argument word")
		arg1     = flag.Uint64("arg1", 0, "second argument word")
		payload  = flag.Int("payload", 64, "payload size in bytes (patterned)")
		injected = flag.Bool("injected", true, "use Injected Function (false: Local Function)")
		backend  = flag.String("backend", "", "fabric backend (default simnet)")
		tenName  = flag.String("tenant", "", "install and call through this tenant's package namespace")
	)
	flag.Parse()
	if (*pkgFile == "") == (*appName == "") || *jam == "" {
		fmt.Fprintln(os.Stderr, "usage: tcrun {-pkg FILE | -app NAME} -jam NAME [-arg0 N] [-arg1 N] [-payload N] [-injected=false]")
		os.Exit(2)
	}
	if *payload < 0 {
		fmt.Fprintf(os.Stderr, "tcrun: -payload %d: the payload size must not be negative\n", *payload)
		os.Exit(2)
	}
	// The receiving mailbox holds two frames, each longer than the
	// payload, in the node's address space; refuse before allocating one.
	if memBytes := core.DefaultNodeConfig().MemBytes; *payload > memBytes/2 {
		fmt.Fprintf(os.Stderr, "tcrun: -payload %d: two frames this large cannot fit the node's mailbox in its %d-byte address space\n",
			*payload, memBytes)
		os.Exit(2)
	}
	var pkg *core.Package
	if *appName != "" {
		var err error
		if pkg, err = tcapp.Build(*appName); err != nil {
			fatal(err)
		}
	} else {
		data, err := os.ReadFile(*pkgFile)
		if err != nil {
			fatal(err)
		}
		if pkg, err = core.DecodePackage(data); err != nil {
			fatal(fmt.Errorf("%s: %w", *pkgFile, err))
		}
	}
	if _, ok := pkg.Element(*jam); !ok {
		if _, ok := pkg.Element("jam_" + *jam); !ok {
			fatal(fmt.Errorf("no element %q in package %s", *jam, pkg.Name))
		}
		*jam = "jam_" + *jam
	}

	usr := make([]byte, *payload)
	for i := range usr {
		usr[i] = byte(i)
	}
	frame := 64
	for _, e := range pkg.Elements {
		if e.Kind == core.ElemJam {
			need, err := core.InjectedFrameLen(e, len(usr))
			if err != nil {
				fatal(err)
			}
			if need > frame {
				frame = need
			}
		}
	}

	geo := mailbox.Geometry{Banks: 1, Slots: 2, FrameSize: frame}
	sys, err := tc.NewSystem(2,
		tc.WithConfig(func(c *core.MeshConfig) { c.Geometry, c.Credits = geo, false }),
		tc.WithBackend(*backend))
	if err != nil {
		fatal(err)
	}
	defer sys.Close()
	if *tenName != "" {
		if _, err := sys.AddTenant(tenant.Config{Name: *tenName, Weight: 1}); err != nil {
			fatal(err)
		}
		if err := sys.InstallPackageFor(*tenName, pkg); err != nil {
			fatal(err)
		}
	} else if err := sys.InstallPackage(pkg); err != nil {
		fatal(err)
	}
	server := sys.Node(1)
	// The exact bound: the mailbox, one page-aligned region, must fit what
	// the server's other regions left of its address space.
	top := mem.Base
	for _, r := range server.AS.Regions() {
		top = max(top, r.Addr+uint64(r.Size))
	}
	va := (top + mem.PageSize - 1) / mem.PageSize * mem.PageSize
	if need := uint64(geo.RegionSize()+mem.PageSize-1) / mem.PageSize * mem.PageSize; va+need > mem.Base+uint64(server.Cfg.MemBytes) {
		fmt.Fprintf(os.Stderr, "tcrun: -payload %d: two %d-byte frames cannot fit the node's mailbox: %d bytes of its address space are free\n",
			*payload, frame, mem.Base+uint64(server.Cfg.MemBytes)-va)
		os.Exit(2)
	}
	server.OnExecuted = func(ret uint64, cost sim.Duration, err error) {
		if err != nil {
			fmt.Printf("execution FAULTED: %v\n", err)
			return
		}
		fmt.Printf("ret = %d (0x%x), simulated execution cost %v\n", ret, ret, cost)
	}

	// Bind once, call once: the handle pre-resolves the element, the
	// future awaits delivery deterministically, and Run drains execution.
	var fn *tc.Func
	if *tenName != "" {
		fn, err = sys.FuncFor(*tenName, 0, pkg.Name, *jam)
	} else {
		fn, err = sys.Func(0, pkg.Name, *jam)
	}
	if err != nil {
		fatal(err)
	}
	callOpts := []tc.CallOpt{tc.Payload(usr)}
	if !*injected {
		callOpts = append(callOpts, tc.Local())
	}
	if _, err := fn.Call(1, [2]uint64{*arg0, *arg1}, callOpts...).Await(); err != nil {
		fatal(err)
	}
	sys.Run()

	mode := "Injected Function"
	if !*injected {
		mode = "Local Function"
	}
	via := ""
	if *tenName != "" {
		via = fmt.Sprintf(" via tenant %q", *tenName)
	}
	fmt.Printf("%s%s: %s(%d, %d) with %dB payload, frame %dB, end-to-end %v\n",
		mode, via, *jam, *arg0, *arg1, *payload, frame, sim.Duration(sys.Now()))
	st := sys.Stats()
	fmt.Printf("stats: %d events; fabric: %d puts, %d bytes; mailbox: %d sent, %d processed, %d errors; "+
		"vm: slot hit/miss %d/%d, %d decodes, %d instrs; cache: %d accesses; admission: %d/%d/%d admitted/dropped/deferred\n",
		st.Events, st.Puts, st.PutBytes, st.Sent, st.Processed, st.Errors,
		st.SlotHits, st.SlotMisses, st.Decodes, st.Instrs, st.Cache.Accesses,
		st.Admitted, st.Dropped, st.Deferred)
	if out := server.Stdout.String(); out != "" {
		fmt.Printf("server stdout:\n%s", out)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tcrun:", err)
	os.Exit(1)
}
