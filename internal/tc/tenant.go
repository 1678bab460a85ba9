package tc

import (
	"fmt"

	"twochains/internal/core"
	"twochains/internal/mailbox"
	"twochains/internal/model"
	"twochains/internal/tenant"
)

// AddTenant registers a serving tenant: a per-tenant package namespace
// on every node, a weighted fair-queue class on every node's service
// arbiter, and (when cfg.Admission is set) token-bucket admission
// control on the issue path. Tenants must be added before their first
// InstallPackageFor or Call.
func (s *System) AddTenant(cfg tenant.Config) (*tenant.Tenant, error) {
	if s.tenants == nil {
		s.tenants = tenant.NewRegistry(s.Nodes())
		s.arbs = make([]*mailbox.FairArbiter, s.Nodes())
		for i := range s.arbs {
			s.arbs[i] = mailbox.NewFairArbiter()
		}
	}
	t, err := s.tenants.Add(cfg)
	if err != nil {
		return nil, err
	}
	// The tenant's dense ID is its arbiter class on every node: AddClass
	// allocates classes densely in the same order on each arbiter.
	for i, arb := range s.arbs {
		if class := arb.AddClass(t.Weight); class != t.ID {
			return nil, fmt.Errorf("tc: tenant %s: arbiter class %d on node %d, want %d",
				t.Name, class, i, t.ID)
		}
	}
	return t, nil
}

// Tenant returns a registered tenant by name.
func (s *System) Tenant(name string) (*tenant.Tenant, bool) {
	if s.tenants == nil {
		return nil, false
	}
	return s.tenants.Lookup(name)
}

// InstallPackageFor installs pkg on every node inside the tenant's
// package namespace, under the tenant-qualified name. Two tenants can
// install different apps — or different versions of the same app —
// without element-ID or RIED-namespace collisions: each install gets
// node-unique package IDs and resolves symbols in the tenant's namespace
// view only.
func (s *System) InstallPackageFor(tenantName string, pkg *core.Package) error {
	t, ok := s.Tenant(tenantName)
	if !ok {
		return fmt.Errorf("tc: install: unknown tenant %q", tenantName)
	}
	return s.InstallPackageView(t.Name, tenant.Qualified(t.Name, pkg.Name), pkg)
}

// FuncFor returns a handle for an element of a tenant's install of pkg,
// sent from node src. Calls through the handle run under the tenant: the
// tenant's namespace view resolves the bindings, its arbiter class
// shares the receiving nodes fairly, and its token bucket (if any)
// admits or rejects each call at issue.
func (s *System) FuncFor(tenantName string, src int, pkg, elem string) (*Func, error) {
	t, ok := s.Tenant(tenantName)
	if !ok {
		return nil, fmt.Errorf("tc: func: unknown tenant %q", tenantName)
	}
	return s.newFunc(t, src, pkg, elem)
}

// viewChannel returns the src->dst channel of the tenant's namespace
// view, enrolling its receiver with dst's fair arbiter (class = tenant
// ID) and pricing the isolation boundary for untrusted tenants on
// creation.
func (s *System) viewChannel(src, dst int, t *tenant.Tenant) (*core.Channel, error) {
	return s.ChannelView(src, dst, t.Name, func(rc mailbox.ReceiverConfig) mailbox.ReceiverConfig {
		rc.Arbiter, rc.ArbClass = s.arbs[dst], t.ID
		if t.Untrusted {
			rc.IsolationCost = model.TenantIsolationCost
		}
		return rc
	})
}
