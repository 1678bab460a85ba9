package core

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"

	"twochains/internal/cpusim"
	"twochains/internal/linker"
	"twochains/internal/mailbox"
	"twochains/internal/mem"
	"twochains/internal/memsim"
	"twochains/internal/sim"
	"twochains/internal/ucx"
	"twochains/internal/vm"
)

// NodeConfig selects one node's hardware and runtime features.
type NodeConfig struct {
	// MemBytes is the address-space capacity (default 64 MB).
	MemBytes int
	// Stash enables LLC stashing of inbound network traffic.
	Stash bool
	// Prefetch enables the stride prefetcher.
	Prefetch bool
	// Timing enables the cache/CPU cost model; functional tests can turn
	// it off.
	Timing bool
	// Seed for this node's stochastic models.
	Seed uint64

	// Security options (paper §V).
	// CheckExec makes the VM enforce execute permissions on fetch.
	CheckExec bool //tclint:allow neverset a paper §V defence: the tests and ROADMAP 3(c) set it
	// SecureExec copies injected jam bodies out of the mailbox into a
	// separate execution area before running them, so mailbox pages need
	// not be executable.
	SecureExec bool
	// ReadOnlyGOT remaps library GOTs read-only after binding.
	ReadOnlyGOT bool //tclint:allow neverset a paper §V defence: the tests and ROADMAP 3(c) set it
	// InsertGp makes this node's receivers overwrite the travelling GOT
	// pointer on arrival instead of trusting the sender's value.
	InsertGp bool
}

// DefaultNodeConfig matches the paper's measurement configuration.
func DefaultNodeConfig() NodeConfig {
	return NodeConfig{
		MemBytes: 64 << 20,
		Stash:    true,
		Prefetch: true,
		Timing:   true,
		Seed:     0x7c2c2021,
	}
}

// Node is one simulated process: address space, caches, namespace, VM,
// worker, and installed packages.
type Node struct {
	Name string
	Cfg  NodeConfig
	// Shard is the fabric shard (leaf domain) the node lives in.
	Shard int

	AS      *mem.AddressSpace
	Hier    *memsim.Hierarchy
	NS      *linker.Namespace
	VM      *vm.VM
	Worker  *ucx.Worker
	Counter *cpusim.Counter
	Stdout  bytes.Buffer

	// Receivers holds every armed mailbox region, one per inbound channel
	// (AddMailbox).
	Receivers []*mailbox.Receiver

	pkgs    map[string]*InstalledPackage
	nextPkg uint8
	// nsViews are per-tenant linker namespaces, forked from the base
	// namespace on first use (see NamespaceView).
	nsViews  map[string]*linker.Namespace
	execArea uint64 // SecureExec scratch
	// jams is the sender-side prepared-jam cache shared by every outgoing
	// channel of this node (bind once per element + receiver namespace).
	jams *jamCache
	// down marks a torn-down node: sends addressed to it fail fast.
	down bool
	// OnExecuted observes every handler execution (benchmark hook).
	OnExecuted func(ret uint64, cost sim.Duration, err error)
}

// InstalledPackage is a package present on a node.
type InstalledPackage struct {
	Pkg *Package
	ID  uint8
	// localVec is the loaded Local Function library's function vector,
	// indexed by element ID.
	localVec map[uint8]uint64
	rieds    map[string]*linker.Loaded
}

// MemBytesError is the typed error NewMesh returns for a node whose
// NodeConfig.MemBytes is negative, or so large that its address space
// would reach past memsim.Span, the addresses the cache model tells apart.
type MemBytesError struct {
	Node     string
	MemBytes int
}

func (e *MemBytesError) Error() string {
	if e.MemBytes < 0 {
		return fmt.Sprintf("core: node %s: negative MemBytes %d", e.Node, e.MemBytes)
	}
	return fmt.Sprintf("core: node %s: MemBytes %d puts the top of its address space past the %d-byte span the cache model covers",
		e.Node, e.MemBytes, uint64(memsim.Span))
}

// addNode creates node i of the mesh in the given fabric shard: its NIC
// joins that leaf domain. Node i's cache and CPU models are seeded from
// cfg.Seed ^ i.
func (m *Mesh) addNode(cfg NodeConfig, shard int) error {
	i := uint64(len(m.nodes))
	// "n%02d", built without fmt: fmt's printer pool empties on every GC,
	// so a Sprintf per node would make a run's allocations depend on GC
	// timing.
	prefix := "n"
	if i < 10 {
		prefix = "n0"
	}
	name := prefix + strconv.FormatUint(i, 10)
	if cfg.MemBytes == 0 {
		cfg.MemBytes = 64 << 20
	}
	if cfg.MemBytes < 0 || uint64(cfg.MemBytes) > memsim.Span-mem.Base {
		return &MemBytesError{Node: name, MemBytes: cfg.MemBytes}
	}
	n := &Node{
		Name:  name,
		Cfg:   cfg,
		Shard: shard,
		AS:    mem.NewAddressSpace(cfg.MemBytes),
		NS:    linker.NewNamespace(),
		pkgs:  map[string]*InstalledPackage{},
		jams:  newJamCache(),
	}
	if cfg.Timing {
		mc := memsim.DefaultConfig()
		mc.Stash = cfg.Stash
		mc.Prefetch = cfg.Prefetch
		mc.Seed = cfg.Seed ^ i
		n.Hier = memsim.New(mc)
	}
	machine, err := vm.New(n.AS, n.Hier, &n.Stdout)
	if err != nil {
		return fmt.Errorf("core: node %s: %w", name, err)
	}
	n.VM = machine
	n.VM.CheckExec = cfg.CheckExec
	if err := vm.BindLibc(n.VM, n.NS); err != nil {
		return fmt.Errorf("core: node %s: %w", name, err)
	}
	n.Worker = ucx.NewWorker(m.Fabric, n.AS, n.Hier)
	m.Fabric.AssignDomain(n.Worker.NIC, shard)
	n.Counter = cpusim.NewCounter(sim.NewRNG(cfg.Seed ^ 0xc0ffee ^ i))
	if cfg.SecureExec {
		va, err := n.AS.AllocPages("secure-exec", 64*1024, mem.PermRWX)
		if err != nil {
			return fmt.Errorf("core: node %s: %w", name, err)
		}
		n.execArea = va
	}
	m.nodes = append(m.nodes, n)
	return nil
}

// SetStress toggles the memory-stress co-runner on this node.
func (n *Node) SetStress(on bool) {
	if n.Hier != nil {
		n.Hier.SetStress(on)
	}
}

// NamespaceView returns the node's namespace view for key, forking it
// from the base namespace on first use. The fork copies the current base
// bindings (libc, natives, already-installed base packages), so a view
// resolves everything the base does until a per-view install shadows a
// name. Views never feed back into the base namespace.
func (n *Node) NamespaceView(key string) *linker.Namespace {
	if n.nsViews == nil {
		n.nsViews = map[string]*linker.Namespace{}
	}
	if ns, ok := n.nsViews[key]; ok {
		return ns
	}
	ns := linker.NewNamespace()
	// Fork in sorted name order: the namespace is a plain map today, but
	// definition order must never become an accidental function of Go's
	// randomized map iteration (tclint detsource).
	snap := n.NS.Snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ns.Redefine(name, snap[name])
	}
	n.nsViews[key] = ns
	return ns
}

// InstallPackage loads a built package onto the node: rieds are loaded as
// libraries (registering their exports in the node namespace), and the
// Local Function library is loaded to provide the by-ID function vector.
func (n *Node) InstallPackage(pkg *Package) (*InstalledPackage, error) {
	return n.installPackageAs(pkg.Name, n.NS, pkg, false)
}

// InstallPackageAs loads pkg under the given alias into ns — the
// per-tenant install path: the alias is the tenant-qualified package
// name, ns the tenant's namespace view. Replacement is allowed so the
// tenant's version of an app shadows the base install's symbols inside
// its own view without touching any other namespace. The install still
// gets a node-unique package ID, so by-ID local dispatch cannot collide
// across tenants.
func (n *Node) InstallPackageAs(alias string, ns *linker.Namespace, pkg *Package) (*InstalledPackage, error) {
	return n.installPackageAs(alias, ns, pkg, true)
}

func (n *Node) installPackageAs(alias string, ns *linker.Namespace, pkg *Package, replace bool) (*InstalledPackage, error) {
	if _, dup := n.pkgs[alias]; dup {
		return nil, fmt.Errorf("core: node %s: package %s already installed", n.Name, alias)
	}
	n.nextPkg++
	inst := &InstalledPackage{
		Pkg:      pkg,
		ID:       n.nextPkg,
		localVec: map[uint8]uint64{},
		rieds:    map[string]*linker.Loaded{},
	}
	opts := linker.LoadOptions{ReadOnlyGOT: n.Cfg.ReadOnlyGOT, Replace: replace}

	for _, e := range pkg.Elements {
		if e.Kind != ElemRied {
			continue
		}
		ld, err := linker.Load(n.AS, ns, e.Ried, opts)
		if err != nil {
			return nil, fmt.Errorf("core: node %s: ried %s: %w", n.Name, e.Name, err)
		}
		if err := n.mapLibrary(ld); err != nil {
			return nil, err
		}
		inst.rieds[e.Name] = ld
	}
	if pkg.LocalLib != nil {
		ld, err := linker.Load(n.AS, ns, pkg.LocalLib, opts)
		if err != nil {
			return nil, fmt.Errorf("core: node %s: local lib: %w", n.Name, err)
		}
		if err := n.mapLibrary(ld); err != nil {
			return nil, err
		}
		for _, e := range pkg.Elements {
			if e.Kind != ElemJam {
				continue
			}
			va, ok := ld.Exports[e.Name]
			if !ok {
				return nil, fmt.Errorf("core: node %s: local lib lacks %s", n.Name, e.Name)
			}
			inst.localVec[e.ID] = va
		}
	}
	n.pkgs[alias] = inst
	return inst, nil
}

// mapLibrary registers a loaded library's text with the VM.
func (n *Node) mapLibrary(ld *linker.Loaded) error {
	if ld.TextLen == 0 {
		return nil
	}
	code, err := n.AS.ReadBytesDMA(ld.TextVA, ld.TextLen)
	if err != nil {
		return err
	}
	if _, err := n.VM.AddRegion(ld.TextVA, code, ld.GotVA); err != nil {
		return fmt.Errorf("core: node %s: map %s: %w", n.Name, ld.Image.Name, err)
	}
	return nil
}

// Package returns an installed package by name.
func (n *Node) Package(name string) (*InstalledPackage, bool) {
	p, ok := n.pkgs[name]
	return p, ok
}

// InstallRied ships a standalone ried image to this node and loads it,
// optionally replacing existing name bindings — the remote-linking dynamic
// update path (paper §III: applications alter subsequent active message
// behaviour by loading a library that changes symbol resolution).
func (n *Node) InstallRied(img *linker.Image, replace bool) (*linker.Loaded, error) {
	ld, err := linker.Load(n.AS, n.NS, img, linker.LoadOptions{
		ReadOnlyGOT: n.Cfg.ReadOnlyGOT,
		Replace:     replace,
	})
	if err != nil {
		return nil, err
	}
	if err := n.mapLibrary(ld); err != nil {
		return nil, err
	}
	return ld, nil
}

// SymbolVA resolves a name in this node's namespace.
func (n *Node) SymbolVA(name string) (uint64, bool) {
	return n.NS.Lookup(name)
}
