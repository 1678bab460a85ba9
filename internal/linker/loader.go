package linker

import (
	"fmt"

	"twochains/internal/mem"
)

// Namespace is a node's dynamic symbol table: every loaded library's
// exports plus the native ("existing C library") symbols. It is the
// per-process name-resolution mechanism the paper contrasts with global
// namespace managers: names bind locally, at load time, per process.
type Namespace struct {
	syms map[string]uint64
}

// NewNamespace returns an empty namespace.
func NewNamespace() *Namespace {
	return &Namespace{syms: map[string]uint64{}}
}

// Define binds name to va. Redefinition is an error: interposition is a
// deliberate act done by loading a new library with ReplaceOK semantics
// (see Redefine), not an accident.
func (ns *Namespace) Define(name string, va uint64) error {
	if _, dup := ns.syms[name]; dup {
		return fmt.Errorf("linker: symbol %q already defined", name)
	}
	ns.syms[name] = va
	return nil
}

// Redefine binds name to va, replacing any existing binding. This is the
// remote-linking update path: loading a new ried version changes the
// resolution of fixed symbolic names for subsequent messages (paper §III).
func (ns *Namespace) Redefine(name string, va uint64) {
	ns.syms[name] = va
}

// Lookup resolves a name.
func (ns *Namespace) Lookup(name string) (uint64, bool) {
	va, ok := ns.syms[name]
	return va, ok
}

// Snapshot copies the bindings, for the sender-side mirror created by the
// namespace-exchange step of the Two-Chains runtime.
func (ns *Namespace) Snapshot() map[string]uint64 {
	out := make(map[string]uint64, len(ns.syms))
	for k, v := range ns.syms {
		out[k] = v
	}
	return out
}

// Loaded is a library mapped into one node's address space.
type Loaded struct {
	Image *Image

	GotVA   uint64
	TextVA  uint64
	TextLen int
	Exports map[string]uint64 // resolved export VAs
}

// LoadOptions control security-relevant loader behaviour (paper §V).
type LoadOptions struct {
	// ReadOnlyGOT remaps the GOT read-only after binding, the defence the
	// paper cites against GOT-overwrite attacks.
	ReadOnlyGOT bool
	// Replace allows this image's exports to replace existing namespace
	// bindings (dynamic update of a previously loaded ried).
	Replace bool
}

// Load maps img into the address space, binds its GOT and load-time
// relocations against ns, applies section permissions, and registers the
// image's exports in ns.
func Load(as *mem.AddressSpace, ns *Namespace, img *Image, opts LoadOptions) (*Loaded, error) {
	base, err := as.AllocPages("lib:"+img.Name, img.TotalSize, mem.PermRW)
	if err != nil {
		return nil, fmt.Errorf("linker: load %s: %w", img.Name, err)
	}
	if err := as.WriteBytes(base, img.Blob); err != nil {
		return nil, fmt.Errorf("linker: load %s: copy: %w", img.Name, err)
	}
	// .bss is already zero (fresh pages).

	resolve := func(sym string, local bool, target uint32) (uint64, error) {
		if local {
			return base + uint64(target), nil
		}
		va, ok := ns.Lookup(sym)
		if !ok {
			return 0, fmt.Errorf("linker: load %s: undefined symbol %q", img.Name, sym)
		}
		return va, nil
	}

	// Bind the GOT.
	for i, g := range img.Got {
		va, err := resolve(g.Sym, g.Local, g.Off)
		if err != nil {
			return nil, err
		}
		if err := as.WriteU64(base+uint64(img.GotOff)+uint64(i*8), va); err != nil {
			return nil, err
		}
	}
	// Apply load relocations.
	for _, lr := range img.LoadRelocs {
		va, err := resolve(lr.Sym, lr.Local, lr.Target)
		if err != nil {
			return nil, err
		}
		if err := as.WriteU64(base+uint64(lr.Off), uint64(int64(va)+int64(lr.Addend))); err != nil {
			return nil, err
		}
	}

	// Section permissions.
	perm := func(off, length int, p mem.Perm) error {
		if length == 0 {
			return nil
		}
		return as.Protect(base+uint64(off), length, p)
	}
	gotPerm := mem.PermRW
	if opts.ReadOnlyGOT {
		gotPerm = mem.PermR
	}
	if img.GotLen > 0 {
		if err := perm(img.GotOff, img.GotLen, gotPerm); err != nil {
			return nil, err
		}
	}
	if err := perm(img.TextOff, img.TextLen, mem.PermRX); err != nil {
		return nil, err
	}
	if err := perm(img.RodataOff, img.RodataLen, mem.PermR); err != nil {
		return nil, err
	}
	if err := perm(img.DataOff, img.DataLen, mem.PermRW); err != nil {
		return nil, err
	}
	if err := perm(img.BssOff, img.BssLen, mem.PermRW); err != nil {
		return nil, err
	}

	ld := &Loaded{
		Image:   img,
		GotVA:   base + uint64(img.GotOff),
		TextVA:  base + uint64(img.TextOff),
		TextLen: img.TextLen,
		Exports: map[string]uint64{},
	}
	for _, e := range img.Exports {
		va := base + uint64(e.Off)
		ld.Exports[e.Name] = va
		if opts.Replace {
			ns.Redefine(e.Name, va)
		} else if err := ns.Define(e.Name, va); err != nil {
			return nil, err
		}
	}
	return ld, nil
}
