package analysis

import "strings"

// This file is the allowlist config the ISSUE calls for: the ROADMAP's
// prose ownership tables ("Per-shard ownership domains (PR 5)" and the
// PR 7/8 extensions) rendered as package+type patterns the analyzers
// consult. Keep it in sync with the ROADMAP "Static contracts (PR 9)"
// section — a rule lives here exactly once.

// simPackages are the determinism-bearing packages: everything that
// executes between plan generation and digest emission. detsource
// forbids wall-clock reads, the global math/rand source, effectful map
// iteration, and stray goroutines inside them (and their subpackages).
var simPackages = []string{
	"twochains/internal/sim",
	"twochains/internal/simnet",
	"twochains/internal/fabric",
	"twochains/internal/core",
	"twochains/internal/mailbox",
	"twochains/internal/tc",
	"twochains/internal/workload",
	"twochains/internal/tenant",
	"twochains/internal/vm",
	"twochains/internal/ucx",
}

// inSimPackages reports whether path is a simulation package or one of
// its subpackages (fixtures claim synthetic subpaths to opt in).
func inSimPackages(path string) bool {
	for _, base := range simPackages {
		if path == base || strings.HasPrefix(path, base+"/") {
			return true
		}
	}
	return false
}

// goroutineAllow maps package path -> enclosing functions that may
// contain `go` statements: exactly sim.Group's worker machinery. Every
// other goroutine in a simulation package breaks the one-worker-per-
// shard execution model (ROADMAP: "go statements outside sim.Group's
// worker machinery").
var goroutineAllow = map[string]map[string]bool{
	"twochains/internal/sim": {
		"(*Group).startWorkers": true,
	},
}

// shardLocalTypes is the ROADMAP "Shard-local by construction" table:
// types owned by one shard worker and never synchronized. sharddomain
// flags sync.* / sync/atomic fields declared in them and atomic calls
// made from their methods — a lock appearing in one of these is either
// an ownership-domain violation being papered over or a table update
// that must happen here (with the ROADMAP edit) first.
//
// Deliberately absent, per the same tables: sim.Group and
// sim.SharedBufPool (cross-shard by design), core.Mesh (locked
// chans/nsMemo), fabric's backend registry, simnet's COW registration
// tables, and the workload runner's lane counters. (Message frames and
// completion/thin-op records need no entry: they live on the shard-local
// Sender and Endpoint freelists.)
//
// mem.AddressSpace stays in the table although its backing arrays are
// recycled through a sync.Pool since PR 15: the pool and its counters are
// package-level shared state, like sim.SharedBufPool, touched only when a
// space grows or is released. A space itself — data, page table, stale
// marks — is still owned by its node's shard worker and carries no sync
// or atomic field.
//
// The vm entry covers the JIT and the two-tier jam path: a Region's
// compiled program, the per-call jitMachine embedded in the VM, the jam
// slot and body tables (jamSlot, jamBody) and the tier counters
// (TierStats) are translation-cache state owned by the node's shard
// worker; the counters are summed into core.MeshStats only after the run.
var shardLocalTypes = map[string][]string{
	"twochains/internal/sim":     {"Engine", "BufPool", "Arena", "RNG"},
	"twochains/internal/mem":     {"AddressSpace"},
	"twochains/internal/memsim":  {"Hierarchy"},
	"twochains/internal/cpusim":  {"Counter"},
	"twochains/internal/vm":      {"VM", "Region", "program", "jitMachine", "jamSlot", "jamBody", "TierStats"},
	"twochains/internal/ucx":     {"Worker", "Endpoint"},
	"twochains/internal/mailbox": {"Sender", "Receiver", "Delivery", "Message", "FairArbiter"},
	"twochains/internal/simnet":  {"NIC"},
	"twochains/internal/core":    {"Bound", "Node", "Channel"},
	"twochains/internal/tc":      {"Future", "Func"},
}

// isShardLocal reports whether (pkgPath, typeName) is in the table.
// Fixture packages claim the real paths, so the same table drives the
// analysistest cases.
func isShardLocal(pkgPath, typeName string) bool {
	for _, name := range shardLocalTypes[pkgPath] {
		if name == typeName {
			return true
		}
	}
	return false
}

const (
	mailboxPath = "twochains/internal/mailbox"
	memPath     = "twochains/internal/mem"
	memsimPath  = "twochains/internal/memsim"
	tcPath      = "twochains/internal/tc"
)
