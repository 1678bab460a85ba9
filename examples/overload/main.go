// Overload: per-process function overloading (paper §IV). Two-Chains does
// not follow an SPMD model — different processes can bind different
// implementations to the same symbolic name, so one injected jam behaves
// according to whichever process it lands on, "much like function
// overloading".
//
// Here a heterogeneous pool has a general-purpose node and an
// "accelerator" node. Both export tc_transform; the jam that travels is
// identical, but each node's ried resolves the name to its own kernel.
package main

import (
	"fmt"
	"log"

	"twochains/internal/core"
	"twochains/internal/mailbox"
	"twochains/internal/sim"
	"twochains/internal/tc"
)

// The travelling jam: transform every u64 word of the payload through the
// node-resolved tc_transform and sum the results.
const jamApply = `
.extern tc_transform
.global jam_apply
jam_apply:
    ; r1=usr r2=usrLen
    addi sp, sp, -40
    st   lr,  [sp+0]
    st   r10, [sp+8]
    st   r11, [sp+16]
    st   r12, [sp+24]
    st   r13, [sp+32]
    mov  r10, r1
    add  r11, r1, r2
    movi r12, 0
apply_loop:
    bgeu r10, r11, apply_done
    ld   r0, [r10+0]
    callg tc_transform
    add  r12, r12, r0
    addi r10, r10, 8
    jmp  apply_loop
apply_done:
    mov  r0, r12
    ld   lr,  [sp+0]
    ld   r10, [sp+8]
    ld   r11, [sp+16]
    ld   r12, [sp+24]
    ld   r13, [sp+32]
    addi sp, sp, 40
    ret
`

// General-purpose node: plain scalar kernel, y = 3x + 1.
const riedCPU = `
.text
.global tc_transform
tc_transform:
    muli r0, r0, 3
    addi r0, r0, 1
    ret
`

// Accelerator node: a "fused" kernel, y = (x*x) >> 4.
const riedAccel = `
.text
.global tc_transform
tc_transform:
    mul  r0, r0, r0
    shri r0, r0, 4
    ret
`

func buildFor(ried string) *core.Package {
	pkg, err := core.BuildPackage("hetero", map[string]string{
		"jam_apply.ams":      jamApply,
		"ried_transform.rds": ried,
	})
	if err != nil {
		log.Fatal(err)
	}
	return pkg
}

func main() {
	// Three processes on one system: the client plus a heterogeneous
	// pool. Per-node installs give each process its own tc_transform.
	const client, cpuNode, accNode = 0, 1, 2
	sys, err := tc.NewSystem(3,
		tc.WithGeometry(mailbox.Geometry{Banks: 1, Slots: 4, FrameSize: 1024}),
		tc.WithCredits(false),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	// The client only needs the jam; install the cpu flavour locally.
	for i, ried := range map[int]string{client: riedCPU, cpuNode: riedCPU, accNode: riedAccel} {
		if _, err := sys.Node(i).InstallPackage(buildFor(ried)); err != nil {
			log.Fatal(err)
		}
	}

	// One payload, one jam, two processes: two different transforms.
	payload := make([]byte, 8*4)
	for i, v := range []uint64{10, 20, 30, 40} {
		for j := 0; j < 8; j++ {
			payload[i*8+j] = byte(v >> (8 * j))
		}
	}
	report := func(name string) func(uint64, sim.Duration, error) {
		return func(ret uint64, _ sim.Duration, err error) {
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %s: jam_apply(10,20,30,40) = %d\n", name, ret)
		}
	}
	sys.Node(cpuNode).OnExecuted = report("cpu-node  (3x+1 kernel)")
	sys.Node(accNode).OnExecuted = report("accel-node (x^2>>4 kernel)")

	// One handle, two destinations: the per-destination state binds
	// against each receiver's own namespace, so the same injected code
	// resolves to different kernels.
	apply, err := sys.Func(client, "hetero", "jam_apply")
	if err != nil {
		log.Fatal(err)
	}
	for _, dst := range []int{cpuNode, accNode} {
		if _, err := apply.Call(dst, [2]uint64{}, tc.Payload(payload)).Await(); err != nil {
			log.Fatal(err)
		}
	}
	sys.Run()

	fmt.Println("same injected code, process-specific behaviour — no SPMD assumption.")
}
