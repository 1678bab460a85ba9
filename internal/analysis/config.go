package analysis

import "strings"

// This file is the config the analyzers consult: the ROADMAP's "Static
// contracts (PR 9)" scope rendered as package patterns. Keep the two in
// sync — a rule lives here exactly once.

// simPackages are the determinism-bearing packages: everything that
// executes between plan generation and digest emission. detsource
// forbids wall-clock reads, the global math/rand source, effectful map
// iteration, and goroutines inside them (and their subpackages).
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

const (
	mailboxPath = "twochains/internal/mailbox"
	memPath     = "twochains/internal/mem"
	memsimPath  = "twochains/internal/memsim"
	tcPath      = "twochains/internal/tc"
)
