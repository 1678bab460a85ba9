package tcapp_test

import (
	"reflect"
	"strings"
	"testing"

	"twochains/internal/core"
	"twochains/internal/mailbox"
	"twochains/internal/sim"
	"twochains/internal/tc"
	"twochains/internal/tcapp"
)

// TestRegistryShape: the in-tree apps are listed in name order and build.
func TestRegistryShape(t *testing.T) {
	names := tcapp.Names()
	if want := []string{"histo", "kvstore", "tcbench"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("apps %v, want %v", names, want)
	}
	for _, n := range names {
		pkg, err := tcapp.Build(n)
		if err != nil {
			t.Fatalf("build %s: %v", n, err)
		}
		if pkg.Name != n {
			t.Errorf("app %s built package named %s", n, pkg.Name)
		}
		if len(jams(pkg)) == 0 {
			t.Errorf("app %s has no jams", n)
		}
	}
	if _, err := tcapp.Build("no-such-app"); err == nil {
		t.Error("unknown app built")
	}
}

// TestBuilderCanonicalNames: jam_/ried_ prefixes may be included or
// omitted; both spell the same canonical element.
func TestBuilderCanonicalNames(t *testing.T) {
	src := `
long jam_echo(long* args, byte* usr, long len) {
    return args[0];
}
`
	for _, name := range []string{"echo", "jam_echo"} {
		pkg, err := tcapp.New("echoapp").Func(name, src).Build()
		if err != nil {
			t.Fatalf("Func(%q): %v", name, err)
		}
		if _, ok := pkg.Element("jam_echo"); !ok {
			t.Fatalf("Func(%q): no jam_echo element", name)
		}
	}
}

// TestBuilderErrors: recording errors stick and surface at Build with
// the offending declaration named.
func TestBuilderErrors(t *testing.T) {
	cases := []struct {
		name string
		b    *tcapp.Builder
		want string
	}{
		{"emptyName", tcapp.New(""), "name is empty"},
		{"dupFile", tcapp.New("x").Func("a", "long jam_a(long* a, byte* u, long l) { return 0; }").Func("a", "..."), "declared twice"},
		{"badData", tcapp.New("x").Data("kv keys", 8), "not an identifier"},
		{"zeroData", tcapp.New("x").Data("k", 0), "non-positive size"},
		{"noWords", tcapp.New("x").DataWords("k"), "no words"},
		{"noElements", tcapp.New("x"), "no elements"},
	}
	for _, c := range cases {
		_, err := c.b.Build()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.want)
		}
	}
	// Duplicate data objects are caught at Build.
	if _, err := tcapp.New("x").Data("k", 8).Data("k", 8).Build(); err == nil ||
		!strings.Contains(err.Error(), "declared twice") {
		t.Errorf("dup data: %v", err)
	}
}

// TestDataObjectsExported: Data/DataWords declarations come out as ried
// exports with the declared sizes and initial values.
func TestDataObjectsExported(t *testing.T) {
	pkg, err := tcapp.Build("kvstore")
	if err != nil {
		t.Fatal(err)
	}
	ried, ok := pkg.Element("ried_kvstore")
	if !ok || ried.Kind != core.ElemRied {
		t.Fatal("no generated ried_kvstore")
	}
	for _, sym := range []string{"kv_keys", "kv_vals", "kv_count"} {
		found := false
		for _, e := range ried.Ried.Exports {
			found = found || e.Name == sym
		}
		if !found {
			t.Errorf("ried_kvstore does not export %s", sym)
		}
	}
}

// appRig is a 2-node system with one app installed and per-execution
// observation on the server node.
type appRig struct {
	sys *tc.System
	fns map[string]*tc.Func
}

func newAppRig(t *testing.T, app string, onExec func(ret uint64, err error)) *appRig {
	t.Helper()
	pkg, err := tcapp.Build(app)
	if err != nil {
		t.Fatal(err)
	}
	// Size frames for the largest jam at the payload sizes the tests use.
	frame := 0
	for _, e := range jams(pkg) {
		need, err := core.InjectedFrameLen(e, 256)
		if err != nil {
			t.Fatal(err)
		}
		if need > frame {
			frame = need
		}
	}
	sys, err := tc.NewSystem(2,
		tc.WithTiming(false),
		tc.WithGeometry(mailbox.Geometry{Banks: 1, Slots: 4, FrameSize: frame}))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.InstallPackage(pkg); err != nil {
		t.Fatal(err)
	}
	sys.Node(1).OnExecuted = func(ret uint64, _ sim.Duration, err error) { onExec(ret, err) }
	r := &appRig{sys: sys, fns: map[string]*tc.Func{}}
	for _, e := range jams(pkg) {
		fn, err := sys.Func(0, app, e.Name)
		if err != nil {
			t.Fatal(err)
		}
		r.fns[e.Name] = fn
	}
	return r
}

// call sends one element (injected or local) and drains the simulation
// so executions land in issue order.
func (r *appRig) call(t *testing.T, elem string, args [2]uint64, usr []byte, local bool) {
	t.Helper()
	opts := []tc.CallOpt{tc.Payload(usr)}
	if local {
		opts = append(opts, tc.Local())
	}
	if _, err := r.fns[elem].Call(1, args, opts...).Await(); err != nil {
		t.Fatalf("%s: %v", elem, err)
	}
	r.sys.Run()
}

// step is one scripted operation of an oracle equivalence run.
type step struct {
	elem string
	args [2]uint64
	usr  []byte
}

// kvScript exercises insert, overwrite, hit, miss, and scans crossing
// occupied and empty windows.
func kvScript() []step {
	var s []step
	for _, key := range []uint64{7, 99, 7, 4242, 29999, 99} {
		s = append(s, step{"jam_kv_put", [2]uint64{key, key * 3}, nil})
	}
	s = append(s,
		step{"jam_kv_put", [2]uint64{1000, 0}, nil}, // zero val stores the key
		step{"jam_kv_get", [2]uint64{7, 0}, nil},
		step{"jam_kv_get", [2]uint64{1000, 0}, nil},
		step{"jam_kv_get", [2]uint64{31337, 0}, nil}, // miss
		step{"jam_kv_scan", [2]uint64{0, 127}, nil},
		step{"jam_kv_scan", [2]uint64{16380, 20}, nil}, // wrapping window
	)
	return s
}

// histScript mixes payload bucketing with partial reduces.
func histScript() []step {
	p1 := []byte("histogram me: aaabbbccc")
	p2 := make([]byte, 200)
	for i := range p2 {
		p2[i] = byte(i * 7)
	}
	return []step{
		{"jam_hist_add", [2]uint64{}, p1},
		{"jam_hist_sum", [2]uint64{0, 255}, nil},
		{"jam_hist_add", [2]uint64{}, p2},
		{"jam_hist_sum", [2]uint64{'a', 4}, nil},
		{"jam_hist_sum", [2]uint64{250, 10}, nil}, // wrapping window
	}
}

// runOracleEquivalence drives the script through the simulated fabric
// (both invocation methods) and the native oracle, requiring identical
// return values in execution order.
func runOracleEquivalence(t *testing.T, app string, script []step, local bool) {
	t.Helper()
	a, ok := tcapp.Lookup(app)
	if !ok || a.NewOracle == nil {
		t.Fatalf("app %s has no oracle", app)
	}
	oracle := a.NewOracle()
	var got []uint64
	rig := newAppRig(t, app, func(ret uint64, err error) {
		if err != nil {
			t.Errorf("exec: %v", err)
			return
		}
		got = append(got, ret)
	})
	for _, s := range script {
		rig.call(t, s.elem, s.args, s.usr, local)
	}
	if len(got) != len(script) {
		t.Fatalf("executed %d of %d steps", len(got), len(script))
	}
	for i, s := range script {
		want, err := oracle.Apply(s.elem, s.args, s.usr)
		if err != nil {
			t.Fatal(err)
		}
		if got[i] != want {
			t.Fatalf("step %d (%s%v): fabric returned %d, oracle %d",
				i, s.elem, s.args, got[i], want)
		}
	}
}

func TestKVStoreOracleInjected(t *testing.T) { runOracleEquivalence(t, "kvstore", kvScript(), false) }
func TestKVStoreOracleLocal(t *testing.T)    { runOracleEquivalence(t, "kvstore", kvScript(), true) }
func TestHistoOracleInjected(t *testing.T)   { runOracleEquivalence(t, "histo", histScript(), false) }
func TestHistoOracleLocal(t *testing.T)      { runOracleEquivalence(t, "histo", histScript(), true) }

// TestTcbenchOracle: the registered tcbench oracle matches the fabric's
// Server-Side Sum.
func TestTcbenchOracle(t *testing.T) {
	payload := make([]byte, 100)
	for i := range payload {
		payload[i] = byte(i*31 + 7)
	}
	runOracleEquivalence(t, "tcbench",
		[]step{{"jam_sssum", [2]uint64{}, payload}, {"jam_sssum", [2]uint64{}, payload[:13]}},
		false)
}

// TestKVProbeCollision: keys engineered to collide probe linearly and
// stay distinguishable — the jam and the oracle agree slot by slot.
func TestKVProbeCollision(t *testing.T) {
	// Find three distinct keys with the same hash by brute force.
	base := uint64(1)
	h0 := kvHashMirror(base)
	keys := []uint64{base}
	for k := base + 1; len(keys) < 3; k++ {
		if kvHashMirror(k) == h0 {
			keys = append(keys, k)
		}
	}
	var script []step
	for _, k := range keys {
		script = append(script, step{"jam_kv_put", [2]uint64{k, k + 1}, nil})
	}
	for _, k := range keys {
		script = append(script, step{"jam_kv_get", [2]uint64{k, 0}, nil})
	}
	runOracleEquivalence(t, "kvstore", script, false)
}

// kvHashMirror re-states the kvstore hash for the collision search (the
// app's own mirror is unexported).
func kvHashMirror(key uint64) uint64 {
	h := key * 2654435761
	return (h ^ (h >> 15)) & 16383
}

// TestBuildSharedAcrossSystems: Build and BuildRieds hand every caller in
// the process the same package, and nothing that uses it writes to it —
// installed into two systems that both run traffic, one of which then
// hot-swaps its server rieds, the shared values still equal builds nobody
// else has seen, and the swap reaches only the system it was made on.
func TestBuildSharedAcrossSystems(t *testing.T) {
	app, _ := tcapp.Lookup("histo")
	freshPkg, err := app.Build()
	if err != nil {
		t.Fatal(err)
	}
	freshRieds, err := app.BuildRieds()
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := tcapp.Build("histo")
	if err != nil {
		t.Fatal(err)
	}
	rieds, err := tcapp.BuildRieds("histo")
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := tcapp.Build("histo"); again != pkg {
		t.Error("Build compiled histo a second time")
	}
	if again, _ := tcapp.BuildRieds("histo"); again != rieds {
		t.Error("BuildRieds compiled histo a second time")
	}

	var gotA, gotB []uint64
	collect := func(got *[]uint64) func(uint64, error) {
		return func(ret uint64, err error) {
			if err != nil {
				t.Errorf("exec: %v", err)
			}
			*got = append(*got, ret)
		}
	}
	a, b := newAppRig(t, "histo", collect(&gotA)), newAppRig(t, "histo", collect(&gotB))
	defer a.sys.Close()
	defer b.sys.Close()
	script := histScript()
	run := func(r *appRig) {
		for _, s := range script {
			r.call(t, s.elem, s.args, s.usr, false)
		}
	}
	run(a)
	run(b)
	for _, e := range rieds.Elements {
		if e.Kind != core.ElemRied {
			continue
		}
		if _, err := a.sys.InstallRied(1, e.Ried, true); err != nil {
			t.Fatal(err)
		}
	}
	a.sys.RefreshNames(1)
	run(a)
	run(b)

	// a's server state was replaced by the swap, so its second pass reads
	// like a first; b's carries on from its own first pass.
	oracleA, oracleB := app.NewOracle(), app.NewOracle()
	var wantA, wantB []uint64
	for pass := 0; pass < 2; pass++ {
		if pass == 1 {
			oracleA = app.NewOracle()
		}
		for _, s := range script {
			ra, err := oracleA.Apply(s.elem, s.args, s.usr)
			if err != nil {
				t.Fatal(err)
			}
			rb, err := oracleB.Apply(s.elem, s.args, s.usr)
			if err != nil {
				t.Fatal(err)
			}
			wantA, wantB = append(wantA, ra), append(wantB, rb)
		}
	}
	if !reflect.DeepEqual(gotA, wantA) {
		t.Errorf("swapped system returned %v, oracle %v", gotA, wantA)
	}
	if !reflect.DeepEqual(gotB, wantB) {
		t.Errorf("unswapped system returned %v, oracle %v", gotB, wantB)
	}
	if reflect.DeepEqual(wantA, wantB) {
		t.Error("the script cannot tell a swapped server from an unswapped one")
	}
	if !reflect.DeepEqual(pkg, freshPkg) {
		t.Error("the shared package differs from a fresh build after use")
	}
	if !reflect.DeepEqual(rieds, freshRieds) {
		t.Error("the shared ried package differs from a fresh build after use")
	}
}

// jams returns the package's jam elements in ID order.
func jams(pkg *core.Package) []*core.Element {
	var out []*core.Element
	for _, e := range pkg.Elements {
		if e.Kind == core.ElemJam {
			out = append(out, e)
		}
	}
	return out
}
