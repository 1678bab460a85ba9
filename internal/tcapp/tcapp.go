// Package tcapp is the application-package authoring layer: a builder
// for composing Two-Chains packages from Go source strings, and a
// fixed table of the applications shipped in-tree, looked up by name,
// so workloads select packages as data ("kvstore") instead of
// hard-wiring build calls.
//
// # Authoring
//
// A package is a set of canonical elements: jams (mobile active-message
// functions, shipped inside frames) and rieds (relocatable interface
// distributions — the shared library a receiver loads to set up the
// interfaces and data objects the jams operate on). The builder
// assembles both from Go:
//
//	pkg, err := tcapp.New("kvstore").
//		Data("kv_keys", 16384*8).            // zeroed server-side state
//		DataWords("kv_count", 0).            // initialized quads
//		Func("kv_put", kvPutSrc).            // AMC (C subset) jam source
//		Build()                              // compile + link via amcc/linker
//
// Data and DataWords declarations accumulate into a generated
// ried_<app>.rds; Func compiles AMC through the same amcc pipeline the
// paper's C flow uses. Ried and Source accept hand-written element
// sources (Source takes JAM assembly too: jam_*.ams, ried_*.rds) when
// the generated forms are not enough.
//
// # Authoring rules
//
// A jam may reference: its own locals and arguments (args word pair,
// usr payload pointer and length), the data objects and functions its
// app's rieds export (via extern — bound by the sender against the
// receiver's namespace at injection time), and the receiver-provided
// natives (memcpy, memset, memcmp, memmove, strlen, strcmp, printf,
// puts, abort). It must not reference symbols of other packages: the
// namespace a jam binds against is whatever the receiver has loaded,
// and the only exports an app controls are its own rieds'. Element
// names are canonical: Func("kv_put", ...) defines element "jam_kv_put"
// whose source must define a function of that exact name.
//
// # Oracles
//
// Every in-tree app carries a native oracle: a pure-Go model of one
// node's server-side state whose Apply mirrors each handler execution
// (same element, args, payload => same return value). Equivalence tests
// drive identical traffic through the simulated fabric and the oracle
// and require identical results; new apps should ship one, because it
// is what turns a digest mismatch from "something changed" into "this
// element diverged".
package tcapp

import (
	"fmt"
	"strings"
	"sync"

	"twochains/internal/core"
)

// Builder accumulates the canonical sources of one application package.
// Methods chain; the first recording error sticks and is reported by
// Build, so call sites stay linear.
type Builder struct {
	name  string
	files map[string]string
	data  []dataDef
	err   error
}

// dataDef is one server-side data object destined for the generated
// ried: zeroed space when words is nil, initialized quads otherwise.
type dataDef struct {
	name  string
	space int
	words []uint64
}

// New starts a package named name.
func New(name string) *Builder {
	b := &Builder{name: name, files: map[string]string{}}
	if name == "" {
		b.fail("package name is empty")
	}
	return b
}

func (b *Builder) fail(format string, args ...any) *Builder {
	if b.err == nil {
		b.err = fmt.Errorf("tcapp: %s: %s", b.name, fmt.Sprintf(format, args...))
	}
	return b
}

// addFile records one canonical element source.
func (b *Builder) addFile(file, src string) *Builder {
	if b.err != nil {
		return b
	}
	if _, dup := b.files[file]; dup {
		return b.fail("element file %s declared twice", file)
	}
	b.files[file] = src
	return b
}

// canonical prefixes name with prefix unless already present.
func canonical(prefix, name string) string {
	if strings.HasPrefix(name, prefix) {
		return name
	}
	return prefix + name
}

// Func adds a jam written in AMC (the C subset compiled by
// internal/amcc). The element is named jam_<name> (the prefix may be
// included or omitted) and src must define a function of exactly that
// name — the canonical entry-symbol convention of the package format.
func (b *Builder) Func(name, src string) *Builder {
	return b.addFile(canonical("jam_", name)+".amc", src)
}

// dataName validates a data-object symbol.
func dataName(name string) error {
	if name == "" {
		return fmt.Errorf("data object with empty name")
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return fmt.Errorf("data object name %q is not an identifier", name)
		}
	}
	return nil
}

// Data declares a zeroed server-side data object of the given byte
// size, exported by the app's generated ried under name.
func (b *Builder) Data(name string, size int) *Builder {
	if b.err != nil {
		return b
	}
	if err := dataName(name); err != nil {
		return b.fail("%v", err)
	}
	if size <= 0 {
		return b.fail("data object %s has non-positive size %d", name, size)
	}
	b.data = append(b.data, dataDef{name: name, space: size})
	return b
}

// DataWords declares an initialized server-side data object: one 64-bit
// word per value, exported under name.
func (b *Builder) DataWords(name string, words ...uint64) *Builder {
	if b.err != nil {
		return b
	}
	if err := dataName(name); err != nil {
		return b.fail("%v", err)
	}
	if len(words) == 0 {
		return b.fail("data object %s has no words", name)
	}
	b.data = append(b.data, dataDef{name: name, words: words})
	return b
}

// genRied renders the accumulated Data/DataWords declarations as the
// app's generated ried source (initialized objects first, then zeroed
// space, each in declaration order).
func (b *Builder) genRied() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "; ried_%s: data objects declared via tcapp.Builder.\n", b.name)
	sb.WriteString(".data\n")
	for _, d := range b.data {
		if d.words == nil {
			continue
		}
		fmt.Fprintf(&sb, ".global %s\n%s:\n", d.name, d.name)
		for _, w := range d.words {
			fmt.Fprintf(&sb, "    .quad %d\n", w)
		}
	}
	sb.WriteString(".bss\n")
	for _, d := range b.data {
		if d.words != nil {
			continue
		}
		fmt.Fprintf(&sb, ".global %s\n%s:\n    .space %d\n", d.name, d.name, d.space)
	}
	return sb.String()
}

// Build compiles and links the accumulated sources into an installable
// package (deferred recording errors surface here).
func (b *Builder) Build() (*core.Package, error) {
	if b.err != nil {
		return nil, b.err
	}
	files := make(map[string]string, len(b.files)+1)
	for f, src := range b.files {
		files[f] = src
	}
	if len(b.data) > 0 {
		seen := map[string]bool{}
		for _, d := range b.data {
			if seen[d.name] {
				return nil, fmt.Errorf("tcapp: %s: data object %s declared twice", b.name, d.name)
			}
			seen[d.name] = true
		}
		gen := "ried_" + b.name + ".rds"
		if _, dup := files[gen]; dup {
			return nil, fmt.Errorf("tcapp: %s: %s collides with the generated data ried", b.name, gen)
		}
		files[gen] = b.genRied()
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("tcapp: %s: no elements", b.name)
	}
	return core.BuildPackage(b.name, files)
}

// App is one in-tree application package: how to build it, a fresh
// native oracle for its server-side semantics (nil when the app has
// none), and a one-line description for tooling.
type App struct {
	Name string
	Doc  string
	// Build compiles a fresh package. The package-level Build calls it
	// once per process and shares the result.
	Build func() (*core.Package, error)
	// BuildRieds, when set, compiles only the app's RIED elements — all
	// a dynamic update (hot-swap) installs, skipping the jam compiles of
	// a full Build.
	BuildRieds func() (*core.Package, error)
	// NewOracle returns a fresh model of one node's server state, or
	// nil.
	NewOracle func() Oracle
}

// Oracle is a native (pure Go) model of one node's server-side state.
// Apply mirrors the execution of one element on that node and returns
// the expected handler return value. Executions on a node are
// serialized, so applying them in execution order replays the node
// exactly.
type Oracle interface {
	Apply(elem string, args [2]uint64, usr []byte) (uint64, error)
}

// entry is an in-tree app and its two builds, each made on first use
// and shared after. Nothing invalidates a build.
type entry struct {
	App
	full, rieds func() (*core.Package, error)
}

// newEntry memoizes app's builds; without a BuildRieds, a rieds-only
// build shares the full one.
func newEntry(app App) *entry {
	e := &entry{App: app, full: sync.OnceValues(app.Build)}
	e.rieds = e.full
	if app.BuildRieds != nil {
		e.rieds = sync.OnceValues(app.BuildRieds)
	}
	return e
}

// apps is the in-tree set, in name order.
var apps = []*entry{
	newEntry(App{
		Name:       "histo",
		Doc:        "byte histogram + weighted reduce: jam_hist_add/sum over ried_histo",
		Build:      BuildHisto,
		BuildRieds: func() (*core.Package, error) { return histoData(New("histo")).Build() },
		NewOracle:  func() Oracle { return NewHistoOracle() },
	}),
	newEntry(App{
		Name:       "kvstore",
		Doc:        "open-addressed key/value table: jam_kv_put/get/scan over ried_kvstore",
		Build:      BuildKVStore,
		BuildRieds: func() (*core.Package, error) { return kvStoreData(New("kvstore")).Build() },
		NewOracle:  func() Oracle { return NewKVOracle() },
	}),
	// The benchmark package of paper §VI-B, listed so scenario mixes can
	// name it like any other app. Its oracle covers Server-Side Sum;
	// Indirect Put's placement semantics are pinned by the dedicated
	// equivalence tests in core.
	newEntry(App{
		Name:  "tcbench",
		Doc:   "paper benchmark package: jam_sssum, jam_iput, jam_hello + ried_kvbench",
		Build: core.BuildBenchPackage,
		BuildRieds: func() (*core.Package, error) {
			return core.BuildPackage("tcbench", map[string]string{
				"ried_kvbench.rds": core.RiedKVBenchSrc,
			})
		},
		NewOracle: func() Oracle { return &benchOracle{} },
	}),
}

// find returns the named app's entry, or nil.
func find(name string) *entry {
	for _, e := range apps {
		if e.Name == name {
			return e
		}
	}
	return nil
}

// Lookup returns the named in-tree app.
func Lookup(name string) (App, bool) {
	if e := find(name); e != nil {
		return e.App, true
	}
	return App{}, false
}

// Names lists the in-tree apps in sorted order.
func Names() []string {
	out := make([]string, len(apps))
	for i, e := range apps {
		out[i] = e.Name
	}
	return out
}

// Build returns the named app's package, compiled on the first call in
// the process. Every caller shares the one value: a built package is
// immutable (installing it only reads it), so treat it as read-only.
func Build(name string) (*core.Package, error) {
	e := find(name)
	if e == nil {
		return nil, fmt.Errorf("tcapp: no registered app %q (have %v)", name, Names())
	}
	return e.full()
}

// BuildRieds returns a package of only the named app's RIED elements —
// what a RIED hot-swap installs — shared like Build's. Apps without the
// lighter path fall back to the full build (the swap installer filters to
// ElemRied either way).
func BuildRieds(name string) (*core.Package, error) {
	e := find(name)
	if e == nil {
		return nil, fmt.Errorf("tcapp: no registered app %q (have %v)", name, Names())
	}
	return e.rieds()
}

// benchOracle models tcbench's Server-Side Sum.
type benchOracle struct{}

func (benchOracle) Apply(elem string, args [2]uint64, usr []byte) (uint64, error) {
	if elem != "jam_sssum" {
		return 0, fmt.Errorf("tcapp: tcbench oracle does not model %q", elem)
	}
	var sum uint64
	i := 0
	for ; i+8 <= len(usr); i += 8 {
		var w uint64
		for j := 0; j < 8; j++ {
			w |= uint64(usr[i+j]) << (8 * j)
		}
		sum += w
	}
	for ; i < len(usr); i++ {
		sum += uint64(usr[i])
	}
	return sum, nil
}
