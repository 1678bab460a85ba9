package tc

import (
	"fmt"

	"twochains/internal/core"
	"twochains/internal/cpusim"
	"twochains/internal/fabric"
	"twochains/internal/linker"
	"twochains/internal/mailbox"
	"twochains/internal/sim"
	"twochains/internal/tenant"
)

// System is N simulated Two-Chains processes on one fabric backend: the
// façade over core.Mesh, the one node container.
type System struct {
	mesh *core.Mesh
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

// WithOrdered selects the fabric write-order guarantee.
func WithOrdered(on bool) SystemOpt {
	return func(c *core.MeshConfig) { c.Ordered = on }
}

// WithGeometry sets the per-channel mailbox shape.
func WithGeometry(g mailbox.Geometry) SystemOpt {
	return func(c *core.MeshConfig) { c.Geometry = g }
}

// WithCredits toggles bank-flag flow control on every channel.
func WithCredits(on bool) SystemOpt {
	return func(c *core.MeshConfig) { c.Credits = on }
}

// WithWaitMode selects the wait-episode cycle accounting on both sides.
func WithWaitMode(m cpusim.WaitMode) SystemOpt {
	return func(c *core.MeshConfig) { c.WaitMode = m }
}

// WithNodeConfig replaces the node template wholesale.
func WithNodeConfig(nc core.NodeConfig) SystemOpt {
	return func(c *core.MeshConfig) { c.Node = nc }
}

// WithPerNode derives node i's configuration from the template —
// heterogeneous deployments without giving up the single default.
func WithPerNode(fn func(i int, cfg core.NodeConfig) core.NodeConfig) SystemOpt {
	return func(c *core.MeshConfig) { c.PerNode = fn }
}

// WithReceiverTweak post-processes every per-channel receiver
// configuration (ablations: variable frames, GP insertion, page perms).
func WithReceiverTweak(fn func(mailbox.ReceiverConfig) mailbox.ReceiverConfig) SystemOpt {
	return func(c *core.MeshConfig) { c.ReceiverTweak = fn }
}

// WithChannelOptions sets the sender-options template applied to every
// channel (separate-signal protocol, auto-switch threshold, ...).
func WithChannelOptions(co core.ChannelOptions) SystemOpt {
	return func(c *core.MeshConfig) { c.Channel = co }
}

// WithChaos wraps the deployment's fabric backend in the "chaos"
// failure-injection transport: per-put latency perturbation within the
// declared bounds, drawn from the deployment's deterministic RNG (see
// fabric.ChaosConfig). The wrapped backend is whatever WithBackend
// selected (resolved when the system is built, so option order does not
// matter), unless cc.Inner names one explicitly.
func WithChaos(cc fabric.ChaosConfig) SystemOpt {
	return func(c *core.MeshConfig) { c.Chaos = &cc }
}

// WithConfig is the catch-all escape hatch for fields without a
// dedicated option.
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
	if cfg.Chaos != nil && cfg.Backend != "chaos" {
		// WithChaos wraps whatever backend the other options selected.
		if cfg.Chaos.Inner == "" {
			cfg.Chaos.Inner = cfg.Backend
		}
		cfg.Backend = "chaos"
	}
	m, err := core.NewMesh(cfg)
	if err != nil {
		return nil, err
	}
	return &System{mesh: m}, nil
}

// Close ends the system's life: every node's address-space backing goes
// onto the process-wide shelf for the next system to reuse (see
// mem.AddressSpace). Call it when the last Run has returned and nothing
// will read node memory again — a mem.View, a pending Future or a Call
// after Close faults instead of touching memory another system may now
// own. Closing twice is harmless. A process that builds systems in
// sequence should Close each one; a system that is never closed is
// simply collected, its backing not reused.
func (s *System) Close() { s.mesh.Close() }

// Nodes returns the node count.
func (s *System) Nodes() int { return s.mesh.Nodes() }

// Node returns node i — the escape hatch to the process-level surface
// (address space, namespace, OnExecuted hook, stdout).
func (s *System) Node(i int) *core.Node { return s.mesh.Node(i) }

// ShardOf reports the fabric shard node i lives in.
func (s *System) ShardOf(i int) int { return s.mesh.ShardOf(i) }

// Engine is the system's discrete-event clock. Drivers arm work from
// outside the simulation with Engine().At / After.
func (s *System) Engine() *sim.Engine { return s.mesh.Eng }

// Now returns the current simulated time.
func (s *System) Now() sim.Time { return s.mesh.Now() }

// RNG is the system's deterministic random stream; all workload
// randomness must come from it (or a Split) for replayable runs.
func (s *System) RNG() *sim.RNG { return s.mesh.RNG() }

// Run processes events until the system is quiescent.
func (s *System) Run() { s.mesh.Run() }

// RunFor processes events for d of simulated time.
func (s *System) RunFor(d sim.Duration) { s.mesh.RunFor(d) }

// InstallPackage installs pkg on every node. Installing the same package
// twice is an error.
func (s *System) InstallPackage(pkg *core.Package) error {
	return s.mesh.InstallPackage(pkg)
}

// InstallRied ships a standalone RIED image to node i and loads it,
// optionally replacing existing name bindings — the remote-linking
// dynamic update path. Call RefreshNames(i) afterwards so senders pick up
// the new namespace.
func (s *System) InstallRied(i int, img *linker.Image, replace bool) (*linker.Loaded, error) {
	return s.mesh.InstallRied(i, img, replace)
}

// RefreshNames re-runs the namespace exchange on every channel into node
// i; Func handles re-bind automatically on their next Call.
func (s *System) RefreshNames(i int) { s.mesh.RefreshNames(i) }

// Teardown takes node i out of service: its mailbox regions stop being
// polled and subsequent Calls addressed to it fail fast.
func (s *System) Teardown(i int) error {
	if i < 0 || i >= s.mesh.Nodes() {
		return fmt.Errorf("tc: teardown: node %d out of range (%d nodes)", i, s.mesh.Nodes())
	}
	s.mesh.Node(i).Teardown()
	return nil
}

// FailNode injects a hard node failure: Teardown plus channel severing,
// fast-fail of every queued send with a typed *core.NodeDownError, and
// peer-side cache invalidation (see core.Mesh.FailNode). It returns the
// queued outbound sends the failure destroyed, per view ("" = base).
func (s *System) FailNode(i int) (map[string]int, error) { return s.mesh.FailNode(i) }

// RejoinNode brings a failed node back. Severed channels stay dead;
// peers rebuild them lazily on their next Call.
func (s *System) RejoinNode(i int) error { return s.mesh.RejoinNode(i) }

// Channel returns the src->dst channel, creating it (and its mailbox
// region on dst) on first use — the lower-level surface for delivery-only
// frames and custom hooks.
func (s *System) Channel(src, dst int) (*core.Channel, error) {
	return s.mesh.Channel(src, dst)
}

// SendData sends a delivery-only frame (the without-execution mode of the
// overhead experiments) and returns its future.
func (s *System) SendData(src, dst int, usr []byte) *Future {
	fu := s.newFuture(1)
	ch, err := s.mesh.Channel(src, dst)
	if err != nil {
		fu.fail(err)
		return fu
	}
	if s.mesh.Node(dst).Down() {
		fu.fail(&core.NodeDownError{Src: s.mesh.Node(src).Name, Dst: s.mesh.Node(dst).Name,
			Node: s.mesh.Node(dst).Name})
		return fu
	}
	ch.SendData(usr, fu.infoCb)
	fu.armed = true
	return fu
}

// Stats sums sender, receiver, and jam-cache counters over the system.
func (s *System) Stats() core.MeshStats { return s.mesh.Stats() }

// Mesh exposes the underlying core deployment for callers that need the
// full internal surface (the perf harness does).
func (s *System) Mesh() *core.Mesh { return s.mesh }
