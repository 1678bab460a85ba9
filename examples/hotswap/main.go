// Hotswap: remote dynamic linking as a live-update mechanism (paper §III).
// Loading a new RIED (relocatable interface distribution) version on a
// running process rebinds a fixed symbolic name, altering the behaviour of
// every subsequent active message — with no restart and no re-linking of
// anything already loaded. The client's pre-resolved tc.Func handle
// survives the swap: it re-binds against the new namespace automatically
// on its next call.
//
// A validation service first enforces a v1 policy (reject payloads over a
// small limit); operations then pushes a v2 policy ried that also enforces
// a parity rule. In-flight protocol, message format, and the validator jam
// are untouched.
package main

import (
	"fmt"
	"log"

	"twochains/internal/core"
	"twochains/internal/mailbox"
	"twochains/internal/sim"
	"twochains/internal/tc"
)

const jamValidate = `
; jam_validate: run the currently bound policy over the request payload.
.extern tc_policy
.global jam_validate
jam_validate:
    addi sp, sp, -16
    st   lr, [sp+0]
    mov  r0, r1          ; payload VA
    mov  r1, r2          ; payload length
    callg tc_policy      ; 1 = accept, 0 = reject
    ld   lr, [sp+0]
    addi sp, sp, 16
    ret
`

const riedPolicyV1 = `
; policy v1: accept any request up to 64 bytes.
.text
.global tc_policy
tc_policy:
    movi r2, 64
    movi r3, 1
    bgeu r2, r1, ok1
    movi r3, 0
ok1:
    mov  r0, r3
    ret
`

const riedPolicyV2 = `
; policy v2: size limit AND even length required.
.text
.global tc_policy
tc_policy:
    movi r2, 64
    movi r3, 0
    bltu r2, r1, done2   ; too large
    andi r4, r1, 1
    movi r5, 0
    bne  r4, r5, done2   ; odd length
    movi r3, 1
done2:
    mov  r0, r3
    ret
`

func main() {
	pkgV1, err := core.BuildPackage("validate", map[string]string{
		"jam_validate.ams": jamValidate,
		"ried_policy.rds":  riedPolicyV1,
	})
	if err != nil {
		log.Fatal(err)
	}
	v2pkg, err := core.BuildPackage("policy2", map[string]string{
		"ried_policy.rds": riedPolicyV2,
	})
	if err != nil {
		log.Fatal(err)
	}
	riedV2, _ := v2pkg.Element("ried_policy")

	const client, validator = 0, 1
	sys, err := tc.NewSystem(2,
		tc.WithConfig(func(c *core.MeshConfig) {
			c.Geometry = mailbox.Geometry{Banks: 1, Slots: 4, FrameSize: 512}
			c.Credits = false
		}),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	if err := sys.InstallPackage(pkgV1); err != nil {
		log.Fatal(err)
	}

	sys.Node(validator).OnExecuted = func(ret uint64, _ sim.Duration, err error) {
		if err != nil {
			log.Fatal(err)
		}
		verdict := "REJECT"
		if ret == 1 {
			verdict = "accept"
		}
		fmt.Printf("  validator: %s\n", verdict)
	}
	// Bind the validator jam once; every check reuses the handle.
	validate, err := sys.Func(client, "validate", "jam_validate")
	if err != nil {
		log.Fatal(err)
	}
	check := func(n int) {
		if _, err := validate.Call(validator, [2]uint64{},
			tc.Payload(make([]byte, n))).Await(); err != nil {
			log.Fatal(err)
		}
		sys.Run()
	}

	fmt.Println("policy v1 (size <= 64):")
	fmt.Print("  33-byte request -> ")
	check(33)
	fmt.Print("  80-byte request -> ")
	check(80)

	// Live update: drive the v2 RIED over and load it with Replace
	// semantics; the namespace exchange refreshes every sender's view,
	// and the bound handle re-binds itself on the next call.
	if _, err := sys.InstallRied(validator, riedV2.Ried, true); err != nil {
		log.Fatal(err)
	}
	sys.RefreshNames(validator)
	fmt.Println("hot-swapped policy ried to v2 (size <= 64 AND even length) — no restart:")

	fmt.Print("  33-byte request -> ")
	check(33)
	fmt.Print("  34-byte request -> ")
	check(34)
	fmt.Print("  80-byte request -> ")
	check(80)
}
