// Package tc is the public façade of the Two-Chains runtime: a unified,
// handle-based invocation API over core.Mesh, the one node container.
//
// # System
//
// A System is N simulated processes on one fabric backend — the two-node
// cluster of the paper's testbed is simply a 2-node System, and the
// sharded many-node mesh is the same type with more nodes:
//
//	sys, err := tc.NewSystem(2)                       // the paper's testbed
//	sys, err := tc.NewSystem(16, tc.WithShards(4))    // a sharded mesh
//	sys, err := tc.NewSystem(8, tc.WithBackend("ideal"))
//
// Channels, mailbox regions, and namespace exchanges are provisioned
// lazily per destination, so full and partial meshes emerge from the
// traffic pattern.
//
// # Bind once, call many
//
// The paper's central claim is that binding a function chain once and
// injecting it many times beats per-call dispatch. Func is that binding
// made explicit: it pre-resolves the element on the source node, and on
// first use per destination it binds the travelling GOT image against the
// receiver namespace (through the sender's shared prepared-jam cache) and
// resolves the receiver-side IDs. Every Call after that ships a message
// with zero string resolution:
//
//	fn, err := sys.Func(0, "tcbench", "jam_iput")     // bind once
//	for i := 0; i < 1e6; i++ {
//		fn.Call(1, [2]uint64{k(i), 0})                // call many
//	}
//	sys.Run()
//
// Locality, bursting, and payload are call options on the one Call
// method:
//
//	fn.Call(dst, args, tc.Payload(usr))                        // Injected Function
//	fn.Call(dst, batch[0], tc.Burst(batch), tc.Payload(usr))   // batched injection
//	fn.Call(dst, args, tc.Local(), tc.Payload(usr))            // Local Function
//
// (The string-based Channel.Inject/CallLocal quartet that predated this
// API is gone; the channel-level surface is core.Bound, reached via
// Channel.Handle, and equivalence tests pin identical digests and
// simulated times between the two layers for fixed seeds.)
//
// # Futures
//
// Call returns a Future that resolves when every message of the call has
// been delivered (the signal landed at the receiver; handler execution is
// observed separately via Node.OnExecuted). Register a callback with
// Done, or block deterministically with Await, which single-steps the
// shared discrete-event engine until the future resolves — no wall-clock
// waiting, no goroutines, bit-identical replays:
//
//	res, err := fn.Call(1, args, tc.Payload(p)).Await()
//
// # Hot swap
//
// Func handles survive receiver-side RIED (relocatable interface
// distribution) hot-swaps: InstallRied plus RefreshNames moves the
// destination's namespace fingerprint, and the next Call through any
// handle re-binds against it automatically.
package tc
