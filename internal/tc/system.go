package tc

import (
	"twochains/internal/core"
	"twochains/internal/mailbox"
	"twochains/internal/sim"
	"twochains/internal/tenant"
)

// mesh names the embedded core.Mesh field in lower case, so it cannot
// clash with the deprecated Mesh method.
type mesh = core.Mesh

// System is N simulated Two-Chains processes on one fabric backend: a
// core.Mesh, whose methods and fields it promotes (Node, Channel, Run,
// Close, FailNode, Cfg, OnChannelCreated, ...), plus the call layer —
// function handles, their futures and the tenants.
type System struct {
	*mesh
	// futures is the system's future pool (see Future's ownership rules).
	futures []*Future
	// tenants and arbs are the multi-tenant serving state, created by the
	// first AddTenant: the tenant registry (admission buckets) and one
	// fair-service arbiter per receiving node.
	tenants *tenant.Registry
	arbs    []*mailbox.FairArbiter
}

// SystemOpt adjusts the deployment template before the system is built.
type SystemOpt func(*core.MeshConfig)

// WithWorkers does nothing: a simulation runs on one engine.
//
// Deprecated: ignored. Kept until benchmark/ stops naming it.
func WithWorkers(int) SystemOpt { return func(*core.MeshConfig) {} }

// WithInterpreter does nothing: the VM's interpret loop is the only
// engine.
//
// Deprecated: inert since PR 21. Kept until benchmark/ stops naming it.
func WithInterpreter() SystemOpt { return func(*core.MeshConfig) {} }

// WithShards partitions the nodes across fabric shards (contiguous
// blocks; cross-shard traffic serializes through shared spine uplinks on
// backends that model topology).
func WithShards(n int) SystemOpt {
	return func(c *core.MeshConfig) { c.Shards = n }
}

// WithBackend selects the fabric transport by registered name
// ("simnet" is the default; "ideal" is the contention-free reference).
func WithBackend(name string) SystemOpt {
	return func(c *core.MeshConfig) { c.Backend = name }
}

// WithSeed seeds both the fabric and the per-node stochastic models.
func WithSeed(seed uint64) SystemOpt {
	return func(c *core.MeshConfig) {
		c.Seed = seed
		c.Node.Seed = seed
	}
}

// WithTiming toggles the cache/CPU cost model (functional tests turn it
// off for speed).
func WithTiming(on bool) SystemOpt {
	return func(c *core.MeshConfig) { c.Node.Timing = on }
}

// WithConfig sets any core.MeshConfig fields: the geometry, credits,
// write order, wait mode, node template, per-node derivation and chaos
// transport have no option of their own.
func WithConfig(fn func(*core.MeshConfig)) SystemOpt {
	return func(c *core.MeshConfig) { fn(c) }
}

// NewSystem builds an n-node system from the paper-testbed defaults plus
// the given options.
func NewSystem(n int, opts ...SystemOpt) (*System, error) {
	cfg := core.DefaultMeshConfig(n)
	for _, o := range opts {
		o(&cfg)
	}
	m, err := core.NewMesh(cfg)
	if err != nil {
		return nil, err
	}
	return &System{mesh: m}, nil
}

// Engine is the system's discrete-event clock. Drivers arm work from
// outside the simulation with Engine().At / After.
func (s *System) Engine() *sim.Engine { return s.Eng }

// SendData sends a delivery-only frame (the without-execution mode of the
// overhead experiments) and returns its future.
func (s *System) SendData(src, dst int, usr []byte) *Future {
	fu := s.newFuture(1)
	ch, err := s.Channel(src, dst)
	if err != nil {
		fu.fail(err)
		return fu
	}
	if d := s.Node(dst); d.Down() {
		fu.fail(&core.NodeDownError{Src: s.Node(src).Name, Dst: d.Name, Node: d.Name})
		return fu
	}
	ch.SendData(usr, fu.infoCb)
	fu.armed = true
	return fu
}

// Stats is the system's one counter snapshot: the mesh's (core.Mesh.Stats)
// plus its tenants' admission counters.
func (s *System) Stats() core.MeshStats {
	st := s.mesh.Stats()
	if s.tenants != nil {
		for _, t := range s.tenants.Tenants {
			st.Admitted += t.Admitted
			st.Dropped += t.Dropped
			st.Deferred += t.Deferred
		}
	}
	return st
}

// Mesh returns the embedded core.Mesh, whose methods and fields System
// already promotes.
//
// Deprecated: kept until benchmark/ stops naming it.
func (s *System) Mesh() *core.Mesh { return s.mesh }
