// Fixture: uses after the pooling hand-off points — Message after
// Send/SendBatch, Future after Release, System after Close, AddressSpace
// after Release — each reported at the exact reaching use.
package fixture

import (
	"twochains/internal/mailbox"
	"twochains/internal/mem"
	"twochains/internal/tc"
)

func useAfterSend(s *mailbox.Sender) {
	msg := s.GetMessage()
	msg.Args[0] = 7
	s.Send(msg, nil)
	msg.Args[1] = 9 // want `use of \*mailbox\.Message msg after Send`
}

func useAfterSendBatch(s *mailbox.Sender, msgs []*mailbox.Message) {
	s.SendBatch(msgs, nil)
	_ = len(msgs) // want `use of message batch msgs after SendBatch`
}

func capturedByCompletion(s *mailbox.Sender) {
	msg := s.GetMessage()
	s.Send(msg, func(info mailbox.SendInfo) {
		_ = msg.Kind // want `msg captured by the completion callback of its own Send`
	})
}

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
