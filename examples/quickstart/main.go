// Quickstart: build the benchmark package with the in-repo toolchain,
// bring up a two-node system, and send both kinds of active message
// through pre-resolved function handles — one whose code travels in the
// message (Injected Function) and one invoked by ID from the receiver's
// library (Local Function).
package main

import (
	"fmt"
	"log"

	"twochains/internal/mailbox"
	"twochains/internal/sim"
	"twochains/internal/tc"

	"twochains/internal/core"
)

func main() {
	// 1. Build the package: jams + rieds compiled by the in-repo
	//    assembler, jams statically rewritten for GOT-pointer indirection.
	pkg, err := core.BuildBenchPackage()
	if err != nil {
		log.Fatal(err)
	}
	iput, _ := pkg.Element("jam_iput")
	fmt.Printf("built package %q: %d elements; jam_iput ships %d bytes of code\n",
		pkg.Name, len(pkg.Elements), iput.Jam.ShippedSize())

	// 2. A two-node system on one simulated RDMA fabric, as in the
	//    paper's testbed — a "cluster" is simply a 2-node tc.System.
	sys, err := tc.NewSystem(2,
		tc.WithGeometry(mailbox.Geometry{Banks: 2, Slots: 4, FrameSize: 2048}),
		tc.WithCredits(true),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	// 3. Install the package everywhere (the server's ried sets up the
	//    hash table and heap; the local-function library provides the
	//    by-ID dispatch vector). Mailboxes and channels are provisioned
	//    lazily on first use.
	if err := sys.InstallPackage(pkg); err != nil {
		log.Fatal(err)
	}
	const client, server = 0, 1
	srv := sys.Node(server)
	srv.OnExecuted = func(ret uint64, cost sim.Duration, err error) {
		if err != nil {
			log.Fatal("handler:", err)
		}
		fmt.Printf("  server executed a message: ret=%d, simulated cost %v\n", ret, cost)
	}

	// 4. Injected Function: bind the handle once; the jam's code and its
	//    format string travel inside the frame and run on arrival — the
	//    receiver resolves printf through the GOT table the sender
	//    patched.
	hello, err := sys.Func(client, "tcbench", "jam_hello")
	if err != nil {
		log.Fatal(err)
	}
	if _, err := hello.Call(server, [2]uint64{1, 0}, tc.Payload([]byte("hi"))).Await(); err != nil {
		log.Fatal(err)
	}

	// 5. Indirect Put: client-chosen key, server-side placement. The
	//    handle was bound once; every further Call skips resolution.
	iputFn, err := sys.Func(client, "tcbench", "jam_iput")
	if err != nil {
		log.Fatal(err)
	}
	payload := []byte("forty-two bytes of payload, injected!")
	if _, err := iputFn.Call(server, [2]uint64{42, 0}, tc.Payload(payload)).Await(); err != nil {
		log.Fatal(err)
	}

	// 6. Local Function: same source, no code on the wire — the frame
	//    carries only IDs and payload (the tc.Local call option).
	sssum, err := sys.Func(client, "tcbench", "jam_sssum")
	if err != nil {
		log.Fatal(err)
	}
	if _, err := sssum.Call(server, [2]uint64{}, tc.Local(),
		tc.Payload([]byte{1, 2, 3, 4, 5, 6, 7, 8})).Await(); err != nil {
		log.Fatal(err)
	}

	sys.Run()

	fmt.Printf("server stdout: %q\n", srv.Stdout.String())
	heap, _ := srv.SymbolVA("tc_heap")
	next, _ := srv.SymbolVA("tc_result_next")
	n, _ := srv.AS.ReadU64(next)
	fmt.Printf("server state: tc_result_next=%d, heap at 0x%x\n", n, heap)
	fmt.Printf("messages processed: %d, simulated time elapsed: %v\n",
		sys.Stats().Processed, sim.Duration(sys.Now()))
}
