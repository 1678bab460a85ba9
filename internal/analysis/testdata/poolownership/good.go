// Fixture (negative twins): hand-off then a fresh epoch, or no touch at
// all — none of these may be reported.
package fixture

import (
	"twochains/internal/mem"
	"twochains/internal/tc"
)

func releaseThenDone(fu *tc.Future, next *tc.Future) {
	fu.Release()
	fu = next // rebound handle: new epoch
	_, _ = fu.Result()
}

func readThenClose(sys *tc.System) uint64 {
	defer sys.Close() // runs last: not a hand-off at this point
	sys.Run()
	return sys.Stats().Sent
}

func closeThenRebuild(sys *tc.System) error {
	sys.Run()
	sys.Close()
	sys, err := rebuild() // rebound handle: new epoch
	if err != nil {
		return err
	}
	sys.Run()
	return nil
}

func rebuild() (*tc.System, error) { return tc.NewSystem(2) }

func releaseLast(as *mem.AddressSpace, va uint64) uint64 {
	v, _ := as.ReadU64(va)
	as.Release()
	return v
}
