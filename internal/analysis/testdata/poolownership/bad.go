// Fixture: uses after the pooling hand-off points — Future after
// Release, System after Close, AddressSpace after Release — each
// reported at the exact reaching use.
package fixture

import (
	"twochains/internal/mem"
	"twochains/internal/tc"
)

func futureAfterRelease(fu *tc.Future) {
	fu.Release()
	_, _ = fu.Result() // want `use of tc\.Future fu after Release`
}

func systemAfterClose(sys *tc.System) {
	sys.Run()
	sys.Close()
	_ = sys.Stats() // want `use of tc\.System sys after Close`
}

func spaceAfterRelease(as *mem.AddressSpace, va uint64) {
	as.Release()
	_, _ = as.ReadU64(va) // want `use of mem\.AddressSpace as after Release`
}
