// Fixture (negative twins): hand-off then a fresh epoch, or no touch at
// all — none of these may be reported.
package fixture

import (
	"twochains/internal/mailbox"
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
