package core

import (
	"fmt"

	"twochains/internal/cpusim"
	"twochains/internal/fabric"
	"twochains/internal/linker"
	"twochains/internal/mailbox"
	"twochains/internal/memsim"
	"twochains/internal/sim"
	"twochains/internal/simnet"
)

// MeshConfig sizes a many-node injection fabric.
type MeshConfig struct {
	// Nodes is the process count (>= 2).
	Nodes int
	// Shards partitions the nodes across fabric shards (leaf domains of a
	// two-tier topology). Nodes are assigned in contiguous blocks;
	// cross-shard traffic serializes through the shared spine uplinks.
	Shards int

	// Ordered is the fabric write-order guarantee (paper testbed: true).
	Ordered bool
	Seed    uint64
	// Backend names the fabric transport: "simnet" (the default, also
	// selected by ""), "ideal" or "chaos".
	Backend string
	// Chaos configures the "chaos" failure-injection backend. When set,
	// it wraps whatever Backend selects (the default Inner), so Backend
	// need not say "chaos". NewMesh refuses a malformed one (see
	// fabric.ChaosConfig.Validate).
	Chaos *fabric.ChaosConfig

	Node NodeConfig
	// PerNode, when set, derives node i's configuration from the Node
	// template — heterogeneous deployments (per-node seeds, asymmetric
	// feature ablations) without giving up the single-template default.
	PerNode func(i int, cfg NodeConfig) NodeConfig

	// Geometry is the per-channel mailbox shape; Credits arms bank-flag
	// flow control on every channel; WaitMode applies to both sides.
	// Every sender uses the fence + separate-signal protocol exactly when
	// the fabric is not Ordered (paper Fig. 1).
	Geometry mailbox.Geometry
	Credits  bool
	WaitMode cpusim.WaitMode
	// VariableFrames selects the variable-size frame protocol on every
	// receiver: a second wait episode per message.
	VariableFrames bool
	// AutoSwitchAfter, when positive, enables the paper's future-work
	// optimization (§VIII) on every channel: after an element has been
	// injected that many times through a handle, the handle detects the
	// reoccurring function and switches to Local Function invocation,
	// shrinking the message (single sends only; bursts are an explicit
	// bulk-injection choice).
	AutoSwitchAfter int
}

// defaultGeometry is the mesh's per-channel mailbox shape unless the
// caller overrides it.
func defaultGeometry() mailbox.Geometry {
	return mailbox.Geometry{Banks: 4, Slots: 8, FrameSize: 2048}
}

// DefaultMeshConfig returns a paper-testbed-flavoured mesh of n nodes:
// banked mailboxes with credits, two fabric shards once the mesh is big
// enough for the split to mean anything.
func DefaultMeshConfig(n int) MeshConfig {
	shards := 1
	if n >= 4 {
		shards = 2
	}
	return MeshConfig{
		Nodes:    n,
		Shards:   shards,
		Ordered:  true,
		Seed:     0x7c2c2021,
		Node:     DefaultNodeConfig(),
		Geometry: defaultGeometry(),
		Credits:  true,
	}
}

// Mesh is a sharded many-node injection fabric: N nodes on one simulated
// RDMA network and one discrete-event clock, partitioned across fabric
// shards, with channels created on demand so full and partial meshes
// emerge from the traffic pattern.
// Every channel gets its own mailbox region on the destination (a region
// admits one remote writer), and all channels of one sender share the
// node's prepared-jam cache — an element is bound once per receiver
// namespace, not once per channel.
type Mesh struct {
	Cfg    MeshConfig
	Eng    *sim.Engine
	Fabric fabric.Transport

	nodes []*Node
	chans map[chanKey]*Channel
	// nsMemo caches each (node, view) namespace snapshot + fingerprint so
	// N inbound channels share one exchange instead of re-computing it.
	nsMemo map[nsKey]nsSnap
	// views are the namespace-view names seen so far, sorted — the
	// deterministic iteration order for EachChannel and Stats.
	views []string
	rng   *sim.RNG
	// OnChannelCreated, when set, observes every successful lazy channel
	// creation — the hook the scenario driver uses to instrument
	// per-tenant receivers (view names the namespace view, "" for the
	// base namespace).
	OnChannelCreated func(src, dst int, view string, ch *Channel)
}

// chanKey identifies a channel: the ordered node pair plus the namespace
// view it resolves against ("" = the base namespace).
type chanKey struct {
	src, dst int
	view     string
}

// nsKey identifies a memoized namespace exchange.
type nsKey struct {
	dst  int
	view string
}

// nsSnap is a memoized namespace exchange.
type nsSnap struct {
	names map[string]uint64
	fp    uint64
}

// NewMesh builds the fabric and the nodes and assigns fabric shards.
// Mailboxes and channels are created lazily by Channel.
func NewMesh(cfg MeshConfig) (*Mesh, error) {
	if cfg.Nodes < 2 {
		return nil, fmt.Errorf("core: mesh needs >= 2 nodes, got %d", cfg.Nodes)
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Shards > cfg.Nodes {
		cfg.Shards = cfg.Nodes
	}
	// Default only the zero fields: caller-set banks/slots survive a
	// missing frame size and vice versa.
	def := defaultGeometry()
	if cfg.Geometry.Banks == 0 {
		cfg.Geometry.Banks = def.Banks
	}
	if cfg.Geometry.Slots == 0 {
		cfg.Geometry.Slots = def.Slots
	}
	if cfg.Geometry.FrameSize == 0 {
		cfg.Geometry.FrameSize = def.FrameSize
	}
	eng := sim.NewEngine()
	fab, err := newTransport(eng, cfg.Backend, cfg.Chaos, fabric.Config{Ordered: cfg.Ordered, Seed: cfg.Seed})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	m := &Mesh{
		Cfg:    cfg,
		Eng:    eng,
		Fabric: fab,
		chans:  map[chanKey]*Channel{},
		nsMemo: map[nsKey]nsSnap{},
		rng:    sim.NewRNG(cfg.Seed ^ 0x6d657368), // "mesh"
	}
	for i := 0; i < cfg.Nodes; i++ {
		ncfg := cfg.Node
		if cfg.PerNode != nil {
			ncfg = cfg.PerNode(i, ncfg)
		}
		if err := m.addNode(ncfg, i*cfg.Shards/cfg.Nodes); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// newTransport builds the named fabric backend on eng. A set chaos config
// wraps any other backend in "chaos" (it becomes the default Inner), and
// "chaos" builds its Inner through this same switch.
func newTransport(eng *sim.Engine, backend string, chaos *fabric.ChaosConfig, cfg fabric.Config) (fabric.Transport, error) {
	if chaos != nil && backend != "chaos" {
		cc := *chaos
		if cc.Inner == "" {
			cc.Inner = backend
		}
		backend, chaos = "chaos", &cc
	}
	switch backend {
	case "", "simnet":
		return simnet.NewFabric(eng, cfg), nil
	case "ideal":
		return fabric.NewIdeal(eng, cfg), nil
	case "chaos":
		if err := chaos.Validate(); err != nil {
			return nil, err
		}
		inner, err := newTransport(eng, chaos.Inner, nil, cfg)
		if err != nil {
			return nil, err
		}
		return fabric.NewChaos(inner, *chaos, cfg.Seed), nil
	}
	return nil, fmt.Errorf("fabric: unknown backend %q (registered: [chaos ideal simnet])", backend)
}

// Nodes returns the node count.
func (m *Mesh) Nodes() int { return len(m.nodes) }

// Node returns node i.
func (m *Mesh) Node(i int) *Node { return m.nodes[i] }

// ShardOf reports the fabric shard node i lives in.
func (m *Mesh) ShardOf(i int) int { return m.nodes[i].Shard }

// RNG is the mesh's deterministic random stream, derived from the mesh
// seed. All workload randomness must come from here (or a Split of it) so
// identical seeds replay identical runs.
func (m *Mesh) RNG() *sim.RNG { return m.rng }

// InstallPackage installs pkg on every node and invalidates the memoized
// namespace exchanges (the install defines new symbols everywhere).
// Channels connected before the install keep their old snapshot until
// RefreshNames.
func (m *Mesh) InstallPackage(pkg *Package) error {
	for _, n := range m.nodes {
		if _, err := n.InstallPackage(pkg); err != nil {
			return err
		}
	}
	m.nsMemo = map[nsKey]nsSnap{}
	return nil
}

// InstallPackageView installs pkg on every node under the given
// namespace view and alias (typically tenant.Qualified(view, pkg.Name)):
// the per-tenant install path. Each node's view namespace is forked from
// its base namespace on first use, and the load may replace symbols
// inside the view, so two tenants can carry different versions of the
// same app — distinct installed-package IDs, element-ID spaces, and RIED
// bindings — without touching the base install or each other. Only the
// view's memoized exchanges are invalidated.
func (m *Mesh) InstallPackageView(view, alias string, pkg *Package) error {
	if view == "" {
		return fmt.Errorf("core: mesh: empty view name")
	}
	for _, n := range m.nodes {
		if _, err := n.InstallPackageAs(alias, n.NamespaceView(view), pkg); err != nil {
			return err
		}
	}
	for k := range m.nsMemo {
		if k.view == view {
			delete(m.nsMemo, k)
		}
	}
	m.registerView(view)
	return nil
}

// Channel returns the src->dst base channel, creating it (and its
// dedicated mailbox region on dst) on first use.
func (m *Mesh) Channel(src, dst int) (*Channel, error) {
	return m.ChannelView(src, dst, "", nil)
}

// ChannelView returns the src->dst channel bound to the named namespace
// view ("" = base), creating it on first use. A view channel gets its
// own mailbox region on dst and exchanges names against dst's view
// namespace, so a tenant's RIED bindings and element IDs resolve inside
// its own install set.
//
// ChannelView is the one place a channel's configuration is made: both
// sides derive from the mesh configuration and, for the receiver's GOT
// pointer policy, from dst's NodeConfig. tweak, when non-nil, sets the
// receiver's serving fields at creation time only (it enrolls the
// receiver with a fair arbiter or prices an isolation boundary); lookups
// of an existing channel ignore it.
func (m *Mesh) ChannelView(src, dst int, view string, tweak func(mailbox.ReceiverConfig) mailbox.ReceiverConfig) (*Channel, error) {
	if src < 0 || src >= len(m.nodes) || dst < 0 || dst >= len(m.nodes) {
		return nil, fmt.Errorf("core: mesh channel %d->%d out of range (%d nodes)", src, dst, len(m.nodes))
	}
	if src == dst {
		return nil, fmt.Errorf("core: mesh channel %d->%d is a self-loop", src, dst)
	}
	key := chanKey{src, dst, view}
	if ch, ok := m.chans[key]; ok {
		return ch, nil
	}
	if m.nodes[dst].down {
		// Refuse to arm a fresh mailbox region on a torn-down node: the
		// teardown guarantee is that the node stops being polled.
		return nil, &NodeDownError{Src: m.nodes[src].Name, Dst: m.nodes[dst].Name, Node: m.nodes[dst].Name}
	}
	if m.nodes[src].down {
		// A failed process issues nothing: no fresh channels either.
		return nil, &NodeDownError{Src: m.nodes[src].Name, Dst: m.nodes[dst].Name, Node: m.nodes[src].Name}
	}
	rcfg := mailbox.ReceiverConfig{
		Geometry:       m.Cfg.Geometry,
		WaitMode:       m.Cfg.WaitMode,
		Credits:        m.Cfg.Credits,
		VariableFrames: m.Cfg.VariableFrames,
		InsertGp:       m.nodes[dst].Cfg.InsertGp,
	}
	if tweak != nil {
		rcfg = tweak(rcfg)
	}
	recv, err := m.nodes[dst].AddMailbox(rcfg)
	if err != nil {
		return nil, err
	}
	scfg := mailbox.SenderConfig{
		Geometry:       m.Cfg.Geometry,
		Credits:        m.Cfg.Credits,
		WaitMode:       m.Cfg.WaitMode,
		SeparateSignal: !m.Cfg.Ordered,
	}
	nk := nsKey{dst, view}
	snap, memoized := m.nsMemo[nk]
	if !memoized {
		ns := m.nodes[dst].NS
		if view != "" {
			ns = m.nodes[dst].NamespaceView(view)
		}
		snap.names = ns.Snapshot()
		snap.fp = nsFingerprint(snap.names)
		m.nsMemo[nk] = snap
	}
	ch, err := connectTo(m.nodes[src], m.nodes[dst], recv, scfg, m.Cfg.AutoSwitchAfter, snap.names, snap.fp)
	if err != nil {
		// Un-arm the region so a retry doesn't accumulate orphan
		// receivers (the address space itself is bump-allocated and not
		// reclaimable).
		rs := m.nodes[dst].Receivers
		if len(rs) > 0 && rs[len(rs)-1] == recv {
			m.nodes[dst].Receivers = rs[:len(rs)-1]
		}
		return nil, err
	}
	m.chans[key] = ch
	if view != "" {
		m.registerView(view)
	}
	if m.OnChannelCreated != nil {
		m.OnChannelCreated(src, dst, view, ch)
	}
	return ch, nil
}

// registerView records a view name in the sorted iteration order.
func (m *Mesh) registerView(view string) {
	i := 0
	for i < len(m.views) && m.views[i] < view {
		i++
	}
	if i < len(m.views) && m.views[i] == view {
		return
	}
	m.views = append(m.views, "")
	copy(m.views[i+1:], m.views[i:])
	m.views[i] = view
}

// Channels returns the currently connected channel count.
func (m *Mesh) Channels() int { return len(m.chans) }

// EachChannel visits every connected channel (base and view) in
// deterministic order: ascending (src, dst), base view first, then view
// names sorted.
func (m *Mesh) EachChannel(fn func(src, dst int, ch *Channel)) {
	m.EachChannelView(func(s, d int, _ string, ch *Channel) { fn(s, d, ch) })
}

// EachChannelView is EachChannel with the namespace view exposed.
func (m *Mesh) EachChannelView(fn func(src, dst int, view string, ch *Channel)) {
	views := append([]string{""}, m.views...)
	for s := 0; s < len(m.nodes); s++ {
		for d := 0; d < len(m.nodes); d++ {
			for _, v := range views {
				if ch, ok := m.chans[chanKey{s, d, v}]; ok {
					fn(s, d, v, ch)
				}
			}
		}
	}
}

// RefreshNames re-runs the namespace exchange on every channel into dst
// (after a ried install on dst changed its bindings). The snapshot and
// fingerprint are computed once and shared read-only by all inbound
// channels, instead of once per channel.
func (m *Mesh) RefreshNames(dst int) {
	if dst < 0 || dst >= len(m.nodes) {
		return
	}
	snap := nsSnap{names: m.nodes[dst].NS.Snapshot()}
	snap.fp = nsFingerprint(snap.names)
	m.nsMemo[nsKey{dst, ""}] = snap
	// Only base channels re-exchange: a view channel's bindings move via
	// InstallPackageView, never via base-namespace updates.
	m.EachChannelView(func(_, d int, view string, ch *Channel) {
		if d == dst && view == "" {
			ch.remoteNames, ch.remoteFP = snap.names, snap.fp
		}
	})
}

// InstallRied ships a standalone RIED image to node i and loads it,
// optionally replacing existing bindings — the remote-linking dynamic
// update path, addressed by node index. Channels into the node pick up
// the new namespace after RefreshNames.
func (m *Mesh) InstallRied(i int, img *linker.Image, replace bool) (*linker.Loaded, error) {
	if i < 0 || i >= len(m.nodes) {
		return nil, fmt.Errorf("core: mesh node %d out of range (%d nodes)", i, len(m.nodes))
	}
	return m.nodes[i].InstallRied(img, replace)
}

// Run processes events until the mesh is quiescent.
func (m *Mesh) Run() { m.Eng.Run() }

// Now returns the simulated time.
func (m *Mesh) Now() sim.Time { return m.Eng.Now() }

// Close releases every node's address-space backing and cache-model tag
// arrays for reuse by the next system (mem.AddressSpace.Release,
// memsim.Hierarchy.Release). Call it once the mesh will not run again:
// afterwards every memory access on its nodes faults. Closing twice is
// harmless.
func (m *Mesh) Close() {
	for _, n := range m.nodes {
		n.AS.Release()
		if n.Hier != nil {
			n.Hier.Release()
		}
	}
}

// MeshStats is one simulation's counters, every layer's summed over the
// nodes: what the system did. Each counts simulated events, so a fixed
// scenario reproduces every field exactly.
type MeshStats struct {
	Channels int
	Events   uint64 // engine events run
	// Puts and PutBytes count the puts the nodes' workers handed the
	// fabric (ucx.Worker) and their bytes.
	Puts, PutBytes uint64
	// The senders' counters (mailbox.Sender), then the receivers'.
	Sent, CreditStalls, Batches, BatchedFrames uint64
	Processed, Errors                          uint64
	// JamBinds and JamHits count the sender-side prepared-jam cache's
	// binds (misses) and hits.
	JamBinds, JamHits uint64
	// The receiving VMs' counters (vm.VM).
	SlotHits, SlotMisses, Decodes, Instrs uint64
	// The tenants' admission counters (tenant.Tenant); only
	// tc.System.Stats, which holds the tenants, fills them.
	Admitted, Dropped, Deferred uint64
	// Cache sums the nodes' cache-model counters (zero without timing).
	Cache memsim.Stats
}

// Stats sums every node's, channel's and worker's counters over the mesh.
func (m *Mesh) Stats() MeshStats {
	st := MeshStats{Channels: m.Channels(), Events: m.Eng.Steps()}
	m.EachChannel(func(_, _ int, ch *Channel) {
		s := ch.Sender
		st.Sent += s.Sent
		st.CreditStalls += s.CreditStalls
		st.Batches += s.Batches
		st.BatchedFrames += s.BatchedFrames
	})
	for _, n := range m.nodes {
		for _, r := range n.Receivers {
			st.Processed += r.Processed
			st.Errors += r.Errors
		}
		st.Puts += n.Worker.Puts
		st.PutBytes += n.Worker.PutBytes
		st.JamBinds += n.jams.binds
		st.JamHits += n.jams.hits
		st.SlotHits += n.VM.SlotHits
		st.SlotMisses += n.VM.SlotMisses
		st.Decodes += n.VM.Decodes
		st.Instrs += n.VM.Instrs
		if n.Hier != nil {
			c := n.Hier.Stats()
			st.Cache.Accesses += c.Accesses
			st.Cache.LinesL2 += c.LinesL2
			st.Cache.LinesL3 += c.LinesL3
			st.Cache.LinesLLC += c.LinesLLC
			st.Cache.LinesDRAM += c.LinesDRAM
			st.Cache.NetStashed += c.NetStashed
			st.Cache.NetToDRAM += c.NetToDRAM
		}
	}
	return st
}
