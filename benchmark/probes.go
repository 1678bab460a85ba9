package main

import (
	"fmt"
	"sort"
	"time"

	"twochains/internal/core"
	"twochains/internal/linker"
	"twochains/internal/mailbox"
	"twochains/internal/mem"
	"twochains/internal/memsim"
	"twochains/internal/sim"
	"twochains/internal/simnet"
	"twochains/internal/tc"
	"twochains/internal/tcapp"
	"twochains/internal/vm"
	"twochains/internal/workload"
)

// A probe is a timed loop over one layer's public function, with inputs
// taken from the workload's own packages, elements, payload and frame
// size. Every probe runs a fixed count (2 under -quick)
// inside one probe span.

// probeShape is what the probes take from the workload under test.
type probeShape struct {
	frame   int    // mailbox frame size
	payload int    // user payload bytes
	pkg     string // the workload's first injected element
	elem    string
	sc      *workload.Scenario // nil for steady_call
}

// compileElems are the elements vm.compile_us.<elem> is reported for.
var compileElems = []struct{ pkg, elem string }{
	{"tcbench", "jam_iput"}, {"tcbench", "jam_sssum"},
	{"kvstore", "jam_kv_put"}, {"kvstore", "jam_kv_get"}, {"kvstore", "jam_kv_scan"},
	{"histo", "jam_hist_add"}, {"histo", "jam_hist_sum"},
}

var probeApps = []string{"tcbench", "kvstore", "histo"}

// timeLoop runs fn n times under one span and returns the mean
// nanoseconds per call.
func timeLoop(tr *tracer, n int, fn func(i int)) float64 {
	return timeLoopAs(tr, spProbe, n, fn)
}

func timeLoopAs(tr *tracer, name spanName, n int, fn func(i int)) float64 {
	sp := tr.begin(name)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	d := time.Since(t0)
	tr.end(sp)
	return float64(d) / float64(n)
}

// probeCount is a probe's fixed count, or 2 under -quick.
func probeCount(c *cfg, n int) int {
	if c.quick {
		return 2
	}
	return n
}

// runProbes fills m with every probe metric.
func runProbes(c *cfg, sh probeShape, tr *tracer, m map[string]metric) error {
	pkgs := map[string]*core.Package{}
	for _, app := range probeApps {
		var err error
		ns := timeLoop(tr, probeCount(c, 50), func(int) {
			var e error
			if pkgs[app], e = tcapp.Build(app); e != nil {
				err = e
			}
		})
		if err != nil {
			return err
		}
		m["tcapp.build_ms."+app] = metric{ns / 1e6, "ms"}
	}
	probeSim(c, tr, m)
	if err := probeSimnet(c, tr, m); err != nil {
		return err
	}
	if err := probeFrames(c, sh, pkgs, tr, m); err != nil {
		return err
	}
	if err := probeLoad(c, sh, pkgs, tr, m); err != nil {
		return err
	}
	probeMemsim(c, tr, m)
	if sh.sc != nil {
		var err error
		ns := timeLoop(tr, probeCount(c, 20000), func(int) {
			if e := sh.sc.Validate(); e != nil {
				err = e
			}
		})
		if err != nil {
			return err
		}
		m["workload.validate_us"] = metric{ns / 1e3, "us"}
	} else {
		m["workload.validate_us"] = metric{0, "us"}
	}
	return probeCalls(c, sh, pkgs, tr, m)
}

// probeSim: one After + one Step with 256 events pending.
func probeSim(c *cfg, tr *tracer, m map[string]metric) {
	eng := sim.NewEngine()
	nop := func() {}
	for i := 0; i < 256; i++ {
		eng.After(sim.Duration(i+1)*sim.Nanosecond, nop)
	}
	ns := timeLoop(tr, probeCount(c, 2_000_000), func(int) {
		eng.After(300*sim.Nanosecond, nop)
		eng.Step()
	})
	m["sim.event_ns"] = metric{ns, "ns"}
}

// probeSimnet: NIC.Put to completion on one engine, two sizes.
func probeSimnet(c *cfg, tr *tracer, m map[string]metric) error {
	eng := sim.NewEngine()
	fab := simnet.NewFabric(eng, simnet.DefaultConfig())
	type host struct {
		nic *simnet.NIC
		buf uint64
		key simnet.RKey
	}
	var hosts [2]host
	for i := range hosts {
		as := mem.NewAddressSpace(1 << 20)
		h := &hosts[i]
		h.nic = fab.AttachNIC(as, memsim.New(memsim.DefaultConfig()))
		var err error
		if h.buf, err = as.AllocPages("buf", 64*1024, mem.PermRW); err != nil {
			return err
		}
		if h.key, err = h.nic.RegisterMemory(h.buf, 64*1024, simnet.RemoteWrite); err != nil {
			return err
		}
	}
	a, b := &hosts[0], &hosts[1]
	for _, size := range []int{256, 2048} {
		var putErr error
		done := func(r simnet.PutResult) {
			if r.Err != nil {
				putErr = r.Err
			}
		}
		ns := timeLoop(tr, probeCount(c, 300_000), func(int) {
			a.nic.Put(b.nic, a.buf, b.buf, size, b.key, done)
			eng.Run()
		})
		if putErr != nil {
			return fmt.Errorf("simnet probe: %w", putErr)
		}
		m[fmt.Sprintf("simnet.put_ns.%d", size)] = metric{ns, "ns"}
	}
	return nil
}

// probeFrames: Message.Pack and ParseFrameInto on the workload's first
// injected element, payload and frame size.
func probeFrames(c *cfg, sh probeShape, pkgs map[string]*core.Package, tr *tracer, m map[string]metric) error {
	elem, ok := pkgs[sh.pkg].Element(sh.elem)
	if !ok {
		return fmt.Errorf("frame probe: no element %s/%s", sh.pkg, sh.elem)
	}
	msg := &mailbox.Message{
		Kind:        mailbox.KindInjected,
		JamImage:    make([]byte, elem.Jam.ShippedSize()),
		GotTableLen: elem.Jam.GotTableLen(),
		TextLen:     elem.Jam.TextLen,
		Usr:         make([]byte, sh.payload),
	}
	as := mem.NewAddressSpace(1 << 20)
	frameVA, err := as.AllocPages("frame", sh.frame, mem.PermRW)
	if err != nil {
		return err
	}
	buf := make([]byte, sh.frame)
	var perr error
	ns := timeLoop(tr, probeCount(c, 1_000_000), func(i int) {
		if e := msg.Pack(buf, sh.frame, uint32(i+1), frameVA); e != nil {
			perr = e
		}
	})
	if perr != nil {
		return fmt.Errorf("pack probe: %w", perr)
	}
	m["mailbox.pack_ns"] = metric{ns, "ns"}
	if err := as.WriteBytesDMA(frameVA, buf); err != nil {
		return err
	}
	var d mailbox.Delivery
	ns = timeLoop(tr, probeCount(c, 2_000_000), func(int) {
		if e := mailbox.ParseFrameInto(&d, as, frameVA, sh.frame); e != nil {
			perr = e
		}
	})
	if perr != nil {
		return fmt.Errorf("parse probe: %w", perr)
	}
	m["mailbox.parse_ns"] = metric{ns, "ns"}
	return nil
}

// probeLoad: a fresh address space plus its first mailbox-region-sized
// allocation, and linker.Load of every ried and the Local Function
// library of the workload's packages into a fresh space and namespace.
func probeLoad(c *cfg, sh probeShape, pkgs map[string]*core.Package, tr *tracer, m map[string]metric) error {
	region := mailbox.Geometry{Banks: 4, Slots: 8, FrameSize: sh.frame}.RegionSize()
	var err error
	ns := timeLoop(tr, probeCount(c, 2000), func(int) {
		as := mem.NewAddressSpace(64 << 20)
		if _, e := as.AllocPages("mailbox", region, mem.PermRWX); e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}
	m["mem.space_first_alloc_ms"] = metric{ns / 1e6, "ms"}

	names := []string{"tcbench"}
	if sh.sc != nil {
		names = scenarioPackages(sh.sc)
	}
	var loadNs float64
	n := probeCount(c, 100)
	for i := 0; i < n; i++ {
		as := mem.NewAddressSpace(64 << 20)
		space := linker.NewNamespace()
		machine, err := vm.New(as, nil, nil)
		if err != nil {
			return err
		}
		if err := vm.BindLibc(machine, space); err != nil {
			return err
		}
		loadNs += timeLoop(tr, 1, func(int) {
			for _, name := range names {
				pkg := pkgs[name]
				for _, e := range pkg.Elements {
					if e.Kind == core.ElemRied {
						if _, e2 := linker.Load(as, space, e.Ried, linker.LoadOptions{}); e2 != nil {
							err = e2
						}
					}
				}
				if pkg.LocalLib != nil {
					if _, e2 := linker.Load(as, space, pkg.LocalLib, linker.LoadOptions{}); e2 != nil {
						err = e2
					}
				}
			}
		})
		if err != nil {
			return fmt.Errorf("load probe: %w", err)
		}
	}
	m["linker.load_ms"] = metric{loadNs / float64(n) / 1e6, "ms"}
	return nil
}

// probeMemsim: Hierarchy.Access over a 4 MB working set, line by line.
func probeMemsim(c *cfg, tr *tracer, m map[string]metric) {
	h := memsim.New(memsim.DefaultConfig())
	ns := timeLoop(tr, probeCount(c, 2_000_000), func(i int) {
		h.Access(mem.Base+uint64(i*64)%(4<<20), 8, memsim.Read)
	})
	m["memsim.access_ns"] = metric{ns, "ns"}
}

// probeCalls builds a 2-node probe system with the workload's frame
// size and all three packages, and measures on it: the first channel,
// a delivery-only frame per call, an executed call per call, the cost
// of a call into a never-seen slot, and — from code bytes captured as
// they were delivered — compile, EnsureJam hit and EnsureJam miss.
func probeCalls(c *cfg, sh probeShape, pkgs map[string]*core.Package, tr *tracer, m map[string]metric) error {
	sys, err := tc.NewSystem(2, tc.WithTiming(true), tc.WithSeed(c.seed),
		tc.WithConfig(func(mc *core.MeshConfig) { mc.Geometry.FrameSize = sh.frame }))
	if err != nil {
		return err
	}
	for _, app := range probeApps {
		if err := sys.InstallPackage(pkgs[app]); err != nil {
			return err
		}
	}

	var ch *core.Channel
	ns := timeLoopAs(tr, spChannel, 1, func(int) { ch, err = sys.Channel(0, 1) })
	if err != nil {
		return err
	}
	m["core.channel_create_us"] = metric{ns / 1e3, "us"}
	// Copy the delivered code out of the frame: the Delivery is the
	// receiver's scratch record and must not be retained.
	type jamCode struct {
		va   uint64
		code []byte
	}
	captured := map[uint8]jamCode{}
	as := sys.Node(1).AS
	ch.Recv.OnProcessed = func(d *mailbox.Delivery, _ sim.Time) {
		if d.Kind != mailbox.KindInjected {
			return
		}
		if b, err := as.ReadBytesDMA(d.CodeVA, d.BodyLen); err == nil {
			captured[d.ElemID] = jamCode{va: d.CodeVA, code: append([]byte(nil), b...)}
		}
	}
	payload := tc.Payload(patternBytes(sh.payload))
	codes := map[string]jamCode{}
	for _, ce := range compileElems {
		fn, err := sys.Func(0, ce.pkg, ce.elem)
		if err != nil {
			return err
		}
		for k := range captured {
			delete(captured, k)
		}
		if err := fn.Call(1, [2]uint64{1, 1}, payload).IssueErr(); err != nil {
			return err
		}
		sys.Run()
		for _, jc := range captured {
			codes[ce.elem] = jc
		}
		if _, ok := codes[ce.elem]; !ok {
			return fmt.Errorf("compile probe: %s was not delivered", ce.elem)
		}
	}
	ch.Recv.OnProcessed = nil

	// Compile: AddRegion + RemoveRegion on a probe VM with timing on.
	pas := mem.NewAddressSpace(64 << 20)
	machine, err := vm.New(pas, memsim.New(memsim.DefaultConfig()), nil)
	if err != nil {
		return err
	}
	for _, ce := range compileElems {
		jc := codes[ce.elem]
		var cerr error
		ns = timeLoop(tr, probeCount(c, 2000), func(int) {
			r, e := machine.AddRegion(jc.va, jc.code, 0)
			if e != nil {
				cerr = e
				return
			}
			machine.RemoveRegion(r)
		})
		if cerr != nil {
			return fmt.Errorf("compile probe %s: %w", ce.elem, cerr)
		}
		m["vm.compile_us."+ce.elem] = metric{ns / 1e3, "us"}
	}
	// EnsureJam: the same bytes again (hit), then two elements
	// alternating in one slot (every call a miss).
	hit, other := codes[sh.elem], codes["jam_sssum"]
	if sh.elem == "jam_sssum" {
		other = codes["jam_iput"]
	}
	var eerr error
	ensure := func(jc jamCode) {
		if _, e := machine.EnsureJam(hit.va, jc.code); e != nil {
			eerr = e
		}
	}
	ensure(hit)
	ns = timeLoop(tr, probeCount(c, 2_000_000), func(int) { ensure(hit) })
	m["vm.ensure_hit_ns"] = metric{ns, "ns"}
	ns = timeLoop(tr, probeCount(c, 2000), func(i int) {
		if i&1 == 0 {
			ensure(other)
		} else {
			ensure(hit)
		}
	})
	if eerr != nil {
		return fmt.Errorf("EnsureJam probe: %w", eerr)
	}
	m["vm.ensure_miss_us"] = metric{ns / 1e3, "us"}

	// Calls on the probe system: the workload's element into node 1.
	fn, err := sys.Func(0, sh.pkg, sh.elem)
	if err != nil {
		return err
	}
	var callErr error
	// A thousand distinct keys stay far below every app's table size.
	call := func(i int) {
		if e := fn.Call(1, [2]uint64{uint64(i%1000) + 1, 1}, payload).IssueErr(); e != nil {
			callErr = e
		}
		sys.Run()
	}
	// Cold: each of the slots the capture calls above did not reach
	// sees this element for the first time. The median of the per-call
	// times over one pass of the mailbox is a call that compiles.
	slots := sys.Mesh().Cfg.Geometry.Total()
	cold := make([]float64, 0, slots)
	for i := 0; i < slots; i++ {
		cold = append(cold, timeLoop(tr, 1, call))
	}
	sort.Float64s(cold)
	m["vm.cold_call_us"] = metric{quantile(cold, 0.5) / 1e3, "us"}
	for i := 0; i < 4*slots; i++ {
		call(i)
	}
	execNs := timeLoop(tr, probeCount(c, 200_000), call)
	usr := patternBytes(sh.payload)
	dataNs := timeLoopAs(tr, spSendData, probeCount(c, 200_000), func(int) {
		if e := sys.SendData(0, 1, usr).IssueErr(); e != nil {
			callErr = e
		}
		sys.Run()
	})
	if callErr != nil {
		return fmt.Errorf("call probe: %w", callErr)
	}
	m["mailbox.data_call_ns"] = metric{dataNs, "ns"}
	m["core.exec_call_ns"] = metric{execNs - dataNs, "ns"}
	return nil
}
