// Fixture (negative twins): hand-off then a fresh epoch, or no touch at
// all — none of these may be reported.
package fixture

import (
	"twochains/internal/mailbox"
	"twochains/internal/mem"
	"twochains/internal/tc"
)

func useBeforeSend(s *mailbox.Sender) {
	msg := s.GetMessage()
	msg.Args[0] = 7
	msg.Kind = mailbox.KindData
	s.Send(msg, nil)
}

func reassignStartsNewEpoch(s *mailbox.Sender) {
	msg := s.GetMessage()
	s.Send(msg, nil)
	msg = s.GetMessage() // fresh frame: new ownership epoch
	msg.Args[0] = 1
	s.Send(msg, nil)
}

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
