package tc

import (
	"errors"
	"strings"
	"testing"

	"twochains/internal/core"
	"twochains/internal/sim"
	"twochains/internal/tenant"
)

// buildCalc compiles a one-jam package named "calc" whose handler
// multiplies args[0] by factor — the "different versions of the same
// app" fixture.
func buildCalc(t *testing.T, factor string) *core.Package {
	t.Helper()
	pkg, err := core.BuildPackage("calc", map[string]string{
		"jam_calc.amc": `
long jam_calc(long* args, byte* usr, long len) {
    return args[0] * ` + factor + `;
}
`,
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

// TestTenantVersionIsolation installs two different versions of the same
// app for two tenants and checks each tenant's calls run its own
// version — distinct element bindings, no namespace collision — while a
// base install of the same runtime keeps working.
func TestTenantVersionIsolation(t *testing.T) {
	sys := quickSystem(t, 3) // installs base tcbench
	if _, err := sys.AddTenant(tenant.Config{Name: "gold", Weight: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.AddTenant(tenant.Config{Name: "bronze", Weight: 1}); err != nil {
		t.Fatal(err)
	}
	if err := sys.InstallPackageFor("gold", buildCalc(t, "2")); err != nil {
		t.Fatal(err)
	}
	if err := sys.InstallPackageFor("bronze", buildCalc(t, "3")); err != nil {
		t.Fatal(err)
	}
	// Same tenant, same app twice: still a duplicate.
	if err := sys.InstallPackageFor("gold", buildCalc(t, "5")); err == nil {
		t.Fatal("duplicate per-tenant install did not fail")
	} else if !strings.Contains(err.Error(), "already installed") {
		t.Fatalf("unexpected error: %v", err)
	}
	if err := sys.InstallPackageFor("nope", buildCalc(t, "2")); err == nil {
		t.Fatal("install for unknown tenant did not fail")
	}

	var rets []uint64
	sys.Node(1).OnExecuted = func(ret uint64, _ sim.Duration, err error) {
		if err != nil {
			t.Errorf("handler error: %v", err)
		}
		rets = append(rets, ret)
	}
	gold, err := sys.FuncFor("gold", 0, "calc", "jam_calc")
	if err != nil {
		t.Fatal(err)
	}
	bronze, err := sys.FuncFor("bronze", 0, "calc", "jam_calc")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gold.Call(1, [2]uint64{10, 0}).Await(); err != nil {
		t.Fatalf("gold call: %v", err)
	}
	if _, err := bronze.Call(1, [2]uint64{10, 0}).Await(); err != nil {
		t.Fatalf("bronze call: %v", err)
	}
	// The base runtime still resolves outside any tenant view.
	base, err := sys.Func(0, "tcbench", "jam_iput")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := base.Call(1, [2]uint64{1, 0}).Await(); err != nil {
		t.Fatalf("base call: %v", err)
	}
	if len(rets) < 2 || rets[0] != 20 || rets[1] != 30 {
		t.Fatalf("per-tenant versions not isolated: rets = %v (want 20, 30, ...)", rets)
	}
	// FuncFor validation mirrors Func's.
	if _, err := sys.FuncFor("gold", 0, "tcbench", "jam_iput"); err == nil {
		t.Fatal("FuncFor on a base-only package did not fail")
	}
	if _, err := sys.FuncFor("nope", 0, "calc", "jam_calc"); err == nil {
		t.Fatal("FuncFor with unknown tenant did not fail")
	}
}

// TestTenantAdmissionDrop pins the Drop policy: the burst passes, the
// next call resolves with a typed *tenant.AdmissionError at issue.
func TestTenantAdmissionDrop(t *testing.T) {
	sys := quickSystem(t, 2)
	tn, err := sys.AddTenant(tenant.Config{Name: "gold", Weight: 1,
		Admission: &tenant.Admission{RatePerSec: 1000, Burst: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.InstallPackageFor("gold", buildCalc(t, "2")); err != nil {
		t.Fatal(err)
	}
	fn, err := sys.FuncFor("gold", 0, "calc", "jam_calc")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := fn.Call(1, [2]uint64{1, 0}).IssueErr(); err != nil {
			t.Fatalf("call %d within burst rejected: %v", i, err)
		}
	}
	var ae *tenant.AdmissionError
	if err := fn.Call(1, [2]uint64{1, 0}).IssueErr(); !errors.As(err, &ae) {
		t.Fatalf("over-burst call error = %v, want *tenant.AdmissionError", err)
	} else if ae.Deferred || ae.Tenant != "gold" {
		t.Fatalf("drop error = %+v", ae)
	}
	sys.Run()
	if tn.Admitted != 2 || tn.Dropped != 1 {
		t.Fatalf("admitted %d, dropped %d", tn.Admitted, tn.Dropped)
	}
	if st := sys.Stats(); st.Admitted != 2 || st.Dropped != 1 || st.Deferred != 0 {
		t.Fatalf("snapshot admitted %d, dropped %d, deferred %d", st.Admitted, st.Dropped, st.Deferred)
	}
}

// TestTenantAdmissionDefer pins the Defer policy: the rejection carries
// an honest retry hint.
func TestTenantAdmissionDefer(t *testing.T) {
	sys := quickSystem(t, 2)
	if _, err := sys.AddTenant(tenant.Config{Name: "gold", Weight: 1,
		Admission: &tenant.Admission{RatePerSec: 1000, Burst: 1, Policy: tenant.Defer}}); err != nil {
		t.Fatal(err)
	}
	if err := sys.InstallPackageFor("gold", buildCalc(t, "2")); err != nil {
		t.Fatal(err)
	}
	fn, err := sys.FuncFor("gold", 0, "calc", "jam_calc")
	if err != nil {
		t.Fatal(err)
	}
	if err := fn.Call(1, [2]uint64{1, 0}).IssueErr(); err != nil {
		t.Fatal(err)
	}
	var ae *tenant.AdmissionError
	if err := fn.Call(1, [2]uint64{1, 0}).IssueErr(); !errors.As(err, &ae) {
		t.Fatalf("deferred call error = %v", err)
	} else if !ae.Deferred || ae.RetryAfter <= 0 {
		t.Fatalf("defer error = %+v", ae)
	}
}
