package fabric_test

import (
	"bytes"
	"math"
	"math/bits"
	"reflect"
	"strings"
	"testing"

	"twochains/internal/core"
	"twochains/internal/fabric"
	"twochains/internal/mem"
	"twochains/internal/sim"
	"twochains/internal/simnet"
)

// TestRegistry: core.NewMesh builds every in-tree backend by name, ""
// selects simnet, and an unknown name is an error naming the set
// [chaos ideal simnet].
func TestRegistry(t *testing.T) {
	for _, c := range []struct {
		name string
		want fabric.Transport
	}{
		{"chaos", (*fabric.Chaos)(nil)},
		{"ideal", (*fabric.Ideal)(nil)},
		{"simnet", (*simnet.Fabric)(nil)},
		{"", (*simnet.Fabric)(nil)},
	} {
		cfg := core.DefaultMeshConfig(2)
		cfg.Backend = c.name
		if c.name == "chaos" {
			cfg.Chaos = &fabric.ChaosConfig{}
		}
		m, err := core.NewMesh(cfg)
		if err != nil {
			t.Fatalf("backend %q: %v", c.name, err)
		}
		if got, want := reflect.TypeOf(m.Fabric), reflect.TypeOf(c.want); got != want {
			t.Errorf("backend %q built a %v, want a %v", c.name, got, want)
		}
		m.Close()
	}
	cfg := core.DefaultMeshConfig(2)
	cfg.Backend = "warp-drive"
	_, err := core.NewMesh(cfg)
	if want := `core: fabric: unknown backend "warp-drive" (registered: [chaos ideal simnet])`; err == nil || err.Error() != want {
		t.Errorf("unknown backend: %v, want %s", err, want)
	}
}

// contractBackend is one backend every Port must behave alike on, built
// on a fresh engine by build. foreign builds a backend whose ports it must
// refuse as put destinations. fence builds the backend the fence case runs
// on: the same one, but on an unordered simnet where one is wrapped, since
// only there can a later put overtake an earlier one.
type contractBackend struct {
	name                  string
	build, foreign, fence func(*sim.Engine) fabric.Transport
}

// contractConfig is the fabric configuration every contract backend runs.
var contractConfig = fabric.Config{Ordered: true, Seed: 1}

func newSimnet(eng *sim.Engine) fabric.Transport { return simnet.NewFabric(eng, contractConfig) }

func newIdeal(eng *sim.Engine) fabric.Transport { return fabric.NewIdeal(eng, contractConfig) }

func newUnorderedSimnet(eng *sim.Engine) fabric.Transport {
	return simnet.NewFabric(eng, fabric.Config{Seed: contractConfig.Seed})
}

// chaosOver wraps the transports inner builds in a chaos backend.
func chaosOver(inner func(*sim.Engine) fabric.Transport) func(*sim.Engine) fabric.Transport {
	return func(eng *sim.Engine) fabric.Transport {
		return fabric.NewChaos(inner(eng), fabric.ChaosConfig{MaxDelay: 100 * sim.Nanosecond}, contractConfig.Seed)
	}
}

// slowChaosOver is chaosOver at the largest delay the backend accepts,
// so a put is still unissued when the fence after it is called.
func slowChaosOver(inner func(*sim.Engine) fabric.Transport) func(*sim.Engine) fabric.Transport {
	return func(eng *sim.Engine) fabric.Transport {
		d := fabric.MaxChaosDelay
		return fabric.NewChaos(inner(eng), fabric.ChaosConfig{MinDelay: d, MaxDelay: d}, contractConfig.Seed)
	}
}

var contractBackends = []contractBackend{
	{name: "simnet", build: newSimnet, foreign: newIdeal, fence: newUnorderedSimnet},
	{name: "ideal", build: newIdeal, foreign: newSimnet, fence: newIdeal},
	{name: "chaos(simnet)", build: chaosOver(newSimnet), foreign: newSimnet, fence: slowChaosOver(newUnorderedSimnet)},
	{name: "chaos(ideal)", build: chaosOver(newIdeal), foreign: newIdeal, fence: slowChaosOver(newIdeal)},
}

const spaceSize = 16 << 10

// portEnv is two ports of one backend: a source buffer on a, and on b a
// landing buffer registered twice, writable (key) and read-only (roKey).
type portEnv struct {
	eng        *sim.Engine
	tr         fabric.Transport
	a, b       fabric.Port
	src, buf   uint64
	key, roKey fabric.RKey
}

func newPortEnv(t *testing.T, c contractBackend) *portEnv {
	t.Helper()
	e := &portEnv{eng: sim.NewEngine()}
	e.tr = c.build(e.eng)
	e.a = e.tr.Attach(mem.NewAddressSpace(spaceSize), nil)
	e.b = e.tr.Attach(mem.NewAddressSpace(spaceSize), nil)
	var err error
	if e.src, err = e.a.AddressSpace().AllocPages("src", 4096, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	if e.buf, err = e.b.AddressSpace().AllocPages("landing", 4096, mem.PermRW); err != nil {
		t.Fatal(err)
	}
	if e.key, err = e.b.RegisterMemory(e.buf, 4096, fabric.RemoteWrite); err != nil {
		t.Fatal(err)
	}
	if e.roKey, err = e.b.RegisterMemory(e.buf, 4096, fabric.RemoteRead); err != nil {
		t.Fatal(err)
	}
	return e
}

// put issues one put from e.src and runs it to completion; the callback
// must fire exactly once.
func (e *portEnv) put(t *testing.T, dst fabric.Port, dstVA uint64, size int, key fabric.RKey) fabric.PutResult {
	t.Helper()
	var res fabric.PutResult
	calls := 0
	e.a.Put(dst, e.src, dstVA, size, key, func(r fabric.PutResult) { res, calls = r, calls+1 })
	e.eng.Run()
	if calls != 1 {
		t.Fatalf("put callback fired %d times", calls)
	}
	return res
}

// TestPortContract: every backend lands the bytes, fires a ranged hook for
// a put that intersects its window and not for one beside it, and refuses
// a bad rkey, an out-of-range put, a wrapping put, a read-only
// registration and a foreign port type — without landing a byte. Across
// fabric shards, a put issued after Fence(dst) is delivered no earlier
// than the put issued before it.
func TestPortContract(t *testing.T) {
	for _, c := range contractBackends {
		t.Run(c.name, func(t *testing.T) {
			e := newPortEnv(t, c)
			msg := []byte("hello, fabric contract!")
			if err := e.a.AddressSpace().WriteBytes(e.src, msg); err != nil {
				t.Fatal(err)
			}
			// The put covers [buf+48, buf+71): it overlaps the first window
			// and ends exactly where the second begins.
			at := e.buf + 48
			var hits, beside, landed int
			var hitVA uint64
			var hitSize int
			e.b.AddDeliveryHookRange(e.buf+64, 64, func(va uint64, size int) { hits, hitVA, hitSize = hits+1, va, size })
			e.b.AddDeliveryHookRange(at+uint64(len(msg)), 64, func(uint64, int) { beside++ })
			e.b.AddDeliveryHookRange(e.buf, 4096, func(uint64, int) { landed++ })

			res := e.put(t, e.b, at, len(msg), e.key)
			if res.Err != nil || res.Delivered == 0 {
				t.Fatalf("put: %+v", res)
			}
			got, err := e.b.AddressSpace().ReadBytesDMA(at, len(msg))
			if err != nil || !bytes.Equal(got, msg) {
				t.Fatalf("landed %q (%v), want %q", got, err, msg)
			}
			if hits != 1 || hitVA != at || hitSize != len(msg) {
				t.Fatalf("intersecting hook: %d calls, last (0x%x, %d)", hits, hitVA, hitSize)
			}
			if beside != 0 {
				t.Fatalf("disjoint hook fired %d times", beside)
			}

			bad := e.key + 1
			for bad == e.roKey || bad == 0 {
				bad++
			}
			foreign := c.foreign(sim.NewEngine()).Attach(mem.NewAddressSpace(spaceSize), nil)
			for _, r := range []struct {
				name string
				dst  fabric.Port
				va   uint64
				size int
				key  fabric.RKey
				want string
			}{
				{"bad rkey", e.b, e.buf, 8, bad, "rkey"},
				{"out of range", e.b, e.buf + 4095, 16, e.key, "outside registration"},
				{"wraps past 2^64", e.b, math.MaxUint64 - 7, 16, e.key, "outside registration"},
				{"read-only", e.b, e.buf, 8, e.roKey, "permission"},
				{"foreign port", foreign, e.buf, 8, e.key, "is not a"},
			} {
				res := e.put(t, r.dst, r.va, r.size, r.key)
				if res.Err == nil || !strings.Contains(res.Err.Error(), r.want) {
					t.Errorf("%s: err %v, want one containing %q", r.name, res.Err, r.want)
				}
			}
			if landed != 1 {
				t.Fatalf("%d puts landed, want only the first", landed)
			}

			// A large put, a fence, then a small one that would otherwise
			// overtake it on an unordered fabric.
			f := newPortEnv(t, contractBackend{build: c.fence})
			f.tr.AssignDomain(f.a, 0)
			f.tr.AssignDomain(f.b, 1)
			var before, after fabric.PutResult
			f.a.Put(f.b, f.src, f.buf, 4096, f.key, func(r fabric.PutResult) { before = r })
			f.a.Fence(f.b)
			f.a.Put(f.b, f.src, f.buf, 8, f.key, func(r fabric.PutResult) { after = r })
			f.eng.Run()
			if before.Err != nil || after.Err != nil || before.Delivered == 0 {
				t.Fatalf("fenced puts: %+v, %+v", before, after)
			}
			if after.Delivered < before.Delivered {
				t.Fatalf("post-fence put delivered at %v, before the pre-fence put at %v", after.Delivered, before.Delivered)
			}
		})
	}
}

// idealBackend is the ideal entry of contractBackends.
var idealBackend = contractBackends[1]

func TestIdealPutDelivers(t *testing.T) {
	e := newPortEnv(t, idealBackend)
	msg := []byte("hello, ideal fabric!")
	if err := e.a.AddressSpace().WriteBytes(e.src, msg); err != nil {
		t.Fatal(err)
	}
	hooked := 0
	e.b.AddDeliveryHookRange(e.buf, 4096, func(uint64, int) { hooked++ })
	res := e.put(t, e.b, e.buf, len(msg), e.key)
	if res.Err != nil {
		t.Fatalf("put failed: %v", res.Err)
	}
	if res.Delivered == 0 {
		t.Fatal("no delivery")
	}
	if hooked != 1 {
		t.Fatalf("delivery hook fired %d times", hooked)
	}
	got, err := e.b.AddressSpace().ReadBytesDMA(e.buf, len(msg))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("landed bytes %q", got)
	}
}

func TestIdealRejectsBadRkey(t *testing.T) {
	e := newPortEnv(t, idealBackend)
	bad := e.key + 1
	for bad == e.roKey || bad == 0 {
		bad++
	}
	if res := e.put(t, e.b, e.buf, 1, bad); res.Err == nil || !strings.Contains(res.Err.Error(), "rkey") {
		t.Fatalf("bad rkey not rejected: %v", res.Err)
	}
	// Out-of-registration access is rejected too.
	if res := e.put(t, e.b, e.buf+4095, 16, e.key); res.Err == nil {
		t.Fatal("out-of-bounds put not rejected")
	}
}

// TestPutPastAddressTopRejected: a put whose end wraps past 2⁶⁴ is a
// rejected put, not a landing that faults.
func TestPutPastAddressTopRejected(t *testing.T) {
	for _, c := range contractBackends[:2] {
		t.Run(c.name, func(t *testing.T) {
			e := newPortEnv(t, c)
			if res := e.put(t, e.b, math.MaxUint64-7, 16, e.key); res.Err == nil {
				t.Fatalf("put at 2^64-8, 16 bytes, accepted: %+v", res)
			}
		})
	}
}

// fuzzReg is the model's view of one registration.
type fuzzReg struct {
	base, size uint64
	access     fabric.Access
}

// within is the naive reference range test: [va, va+size) lies inside r,
// computed with the carry of the addition instead of wrapping. A
// zero-length put must still start inside r.
func (r fuzzReg) within(va uint64, size int) bool {
	end, carry := bits.Add64(va, uint64(size), 0)
	return carry == 0 && va >= r.base && va < r.base+r.size && end <= r.base+r.size
}

// FuzzPortPut runs a byte program of registrations and puts against one
// backend and a naive interval model of the destination. Byte 0 picks the
// backend; each following 4-byte op registers a range (on the destination,
// or on the source to mint foreign keys) or issues a put with a valid,
// foreign or never-registered key at an in-range, edge or near-2⁶⁴
// address. Every registration must succeed exactly when the model says
// the range is mapped; every put must call back once and either land
// exactly its bytes or fail with an error and land none; nothing panics.
func FuzzPortPut(f *testing.F) {
	// On ideal: a writable registration on b and one on a, then a put
	// inside b's and one straddling its end. The committed corpus entry
	// testdata/fuzz/FuzzPortPut/wrap-past-top puts 16 bytes at 2^64-8.
	f.Add([]byte{1, 0x00, 0x11, 0x05, 0x20, 0x04, 0x11, 0x00, 0x10, 0x41, 0x00, 0x00, 0x03, 0xfd, 0x04, 0x00, 0x1f})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 {
			return
		}
		c := contractBackends[int(prog[0])%len(contractBackends)]
		eng := sim.NewEngine()
		tr := c.build(eng)
		asA, asB := mem.NewAddressSpace(spaceSize), mem.NewAddressSpace(spaceSize)
		defer asA.Release()
		defer asB.Release()
		a, b := tr.Attach(asA, nil), tr.Attach(asB, nil)
		mirror := make([]byte, spaceSize)
		dstRegs := map[fabric.RKey]fuzzReg{}
		var dstKeys, srcKeys []fabric.RKey
		var regs []fuzzReg
		accesses := [4]fabric.Access{fabric.RemoteRead, fabric.RemoteWrite, fabric.RemoteRead | fabric.RemoteWrite, 0}

		for i, ops := 1, 0; i+4 <= len(prog) && ops < 64; i, ops = i+4, ops+1 {
			op := prog[i : i+4]
			if op[0]%4 == 0 {
				// Register [base, base+size) on b (or on a, minting a key
				// that is foreign to b). Both spaces span spaceSize, so
				// mem.Base+spaceSize bounds either.
				var base uint64
				switch (op[1] >> 2) & 3 {
				case 0:
					base = mem.Base + uint64(op[2])*61%spaceSize
				case 1:
					base = mem.Base + spaceSize - uint64(op[2]%64)
				case 2:
					base = math.MaxUint64 - uint64(op[2])
				case 3:
					base = mem.Base - 1 - uint64(op[2]%16)
				}
				size := int(op[3])
				if op[1]&0x10 != 0 {
					size *= 33
				}
				access := accesses[op[1]&3]
				port := b
				if op[0]&4 != 0 {
					port = a
				}
				key, err := port.RegisterMemory(base, size, access)
				end, carry := bits.Add64(base, uint64(size), 0)
				if ok := size > 0 && carry == 0 && base >= mem.Base && end <= mem.Base+spaceSize; ok != (err == nil) {
					t.Fatalf("register [0x%x,+%d): err %v, model says ok=%v", base, size, err, ok)
				}
				if err != nil {
					continue
				}
				if port == a {
					srcKeys = append(srcKeys, key)
					continue
				}
				r := fuzzReg{base: base, size: uint64(size), access: access}
				dstRegs[key] = r
				dstKeys = append(dstKeys, key)
				regs = append(regs, r)
				continue
			}

			// A put: pick its key, then its address relative to one of b's
			// registrations (or a page of b when it has none).
			key := fabric.RKey(0xa5000000 | uint32(op[2])<<8 | uint32(op[3]))
			switch op[1] & 3 {
			case 0, 1:
				if len(dstKeys) > 0 {
					key = dstKeys[int(op[2])%len(dstKeys)]
				}
			case 2:
				if len(srcKeys) > 0 {
					key = srcKeys[int(op[2])%len(srcKeys)]
				}
			}
			ref := fuzzReg{base: mem.Base, size: 4096}
			if len(regs) > 0 {
				ref = regs[int(op[2])%len(regs)]
			}
			var va uint64
			switch (op[1] >> 2) & 3 {
			case 0:
				va = ref.base + uint64(op[3])%ref.size
			case 1:
				va = ref.base + ref.size - uint64(op[3]%32)
			case 2:
				va = math.MaxUint64 - uint64(op[3]%64)
			case 3:
				va = ref.base - 1 - uint64(op[3]%8)
			}
			size := int(op[0] >> 2)
			if op[1]&0x10 != 0 {
				size *= 127
			}
			payload := make([]byte, size)
			for j := range payload {
				payload[j] = byte(ops*7 + j + 1)
			}
			if err := asA.WriteBytesDMA(mem.Base, payload); err != nil {
				t.Fatal(err)
			}

			var res fabric.PutResult
			calls := 0
			a.Put(b, mem.Base, va, size, key, func(r fabric.PutResult) { res, calls = r, calls+1 })
			eng.Run()
			if calls != 1 {
				t.Fatalf("put [0x%x,+%d) key %#x: callback fired %d times", va, size, key, calls)
			}
			r, known := dstRegs[key]
			ok := known && r.access&fabric.RemoteWrite != 0 && r.within(va, size)
			if ok != (res.Err == nil) {
				t.Fatalf("put [0x%x,+%d) key %#x: err %v, model says ok=%v", va, size, key, res.Err, ok)
			}
			if ok {
				copy(mirror[va-mem.Base:], payload)
			}
			got, err := asB.ReadBytesDMA(mem.Base, spaceSize)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, mirror) {
				t.Fatalf("put [0x%x,+%d) key %#x (ok=%v): destination differs from the model", va, size, key, ok)
			}
		}
	})
}
