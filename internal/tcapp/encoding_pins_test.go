package tcapp_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"twochains/internal/asm"
	"twochains/internal/core"
	"twochains/internal/tcapp"
)

// pinObjSrc fills every section and carries every relocation kind that
// survives assembly: GOT calls and loads, a LEA of read-only data and an
// absolute pointer in .data, over local, global and undefined symbols.
const pinObjSrc = `
.text
.extern memcpy
.extern counter
.global entry
entry:
    callg memcpy
    ldg   r1, counter
    call  helper
    lea   r0, msg
    ret
helper:
    jmp   done
done:
    ret
.rodata
msg:
    .asciz "pin"
.data
.global fptr
fptr:
    .quad helper
.bss
scratch:
    .space 128
`

// TestEncodingPins pins every wire encoding by value: the SHA-256 of
// Encode() for each tcapp package, each of its jam and RIED elements and
// its Local Function library, and one assembled object. A change to any
// codec must leave these bytes exactly where they are.
func TestEncodingPins(t *testing.T) {
	got := map[string]string{}
	sum := func(key string, b []byte) {
		h := sha256.Sum256(b)
		got[key] = hex.EncodeToString(h[:])
	}
	for _, app := range []string{"tcbench", "kvstore", "histo"} {
		pkg, err := tcapp.Build(app)
		if err != nil {
			t.Fatal(err)
		}
		sum(app, pkg.Encode())
		for _, e := range pkg.Elements {
			switch e.Kind {
			case core.ElemJam:
				sum(app+"/"+e.Name, e.Jam.Encode())
			case core.ElemRied:
				sum(app+"/"+e.Name, e.Ried.Encode())
			}
		}
		sum(app+"/local", pkg.LocalLib.Encode())
	}
	obj, err := asm.Assemble("pin.s", pinObjSrc)
	if err != nil {
		t.Fatal(err)
	}
	sum("object", obj.Encode())

	want := map[string]string{
		"histo":                "019b8b78083e29d01643ff28b4d62fbf966b2528a79beb745bb1b17045cb39ea",
		"histo/jam_hist_add":   "9f52577bc628e32e1236fd4d9bd794d0038b16fe36e6aa5097cbf979d6272c0c",
		"histo/jam_hist_sum":   "27d4cb2902dfe74021309a16b0b9549c683dae7a1136ee9122d8e27629674a71",
		"histo/local":          "cc0a86848c2b667c8e07ab889e633d4399f2b1e9312253cf4902dcf7d7ab69fb",
		"histo/ried_histo":     "81975d1e1cb3627df155d9714221f01ef8c0a58b7ec262b7eec0fa392823dc47",
		"kvstore":              "c34ec3de7dc4c6f1f266883ef9ea3ea95611690f7d8799f66af350ac3f83079f",
		"kvstore/jam_kv_get":   "7c5b11a906e8844f130494d417f39ebfc5363a0f1958a1f207640d3d42e7a1c7",
		"kvstore/jam_kv_put":   "dc4c5899d9f5fdacdc9e5b68dc19288ffb7c33ce6148518f403c94bded89db8b",
		"kvstore/jam_kv_scan":  "2362d25eca2a5d1d4ed7feddcdc6bfebffd77b2075b668a85cd7b73a83849e9c",
		"kvstore/local":        "31728280d6a66b4310f36d33060d65026760efc369632816763765608ef4e335",
		"kvstore/ried_kvstore": "c7c491a287f3d601b545928aedd5336e1e80aa76d2e26ded423f2aa1f9c9e978",
		"object":               "6ed771976bd610c6f78bec520836f865acadca8bcf9c4161fd2f9b8168adeda9",
		"tcbench":              "7399743cd2c4ce6df3214cca5615fdf1d1d89dbd3151310545c2eb2d11d9ba31",
		"tcbench/jam_hello":    "974dfcdff009f536d8e99e5cd3fe8025ae9f6b02752ce27d0ded9c37af2b3dde",
		"tcbench/jam_iput":     "0bf01eaff51a3224ac0277a9036ce4a2f736dd43e4881a279548f51058289935",
		"tcbench/jam_sssum":    "f820672e70d9dc3df62b90b45c10a32c3506b9ec381f396e8cadefbd85427a51",
		"tcbench/local":        "63c0cef77308a61a28cafceb05100ed410a8603d682ea7f1c3ef30444216a6a4",
		"tcbench/ried_kvbench": "79746a437f336a29ea538d4a86eaa254bd31e236e8122364601cd7cc4410f9d7",
	}
	for k, g := range got {
		if want[k] != g {
			t.Errorf("%q: encoding sha256 %s, want %s", k, g, want[k])
		}
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			t.Errorf("%q: pinned encoding not produced", k)
		}
	}
}
