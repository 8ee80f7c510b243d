// Package comm models the communication layer beneath the PGAS runtime.
//
// The paper runs on a Cray XC-50 whose Aries network carries three kinds of
// traffic that RCUArray cares about: GET (remote read of a block element),
// PUT (remote write), and active messages (spawning the resize replication
// task on each locale, and acquiring the cluster-wide WriteLock). Chapel
// hides all three behind ordinary syntax; this package makes them explicit
// and measurable.
//
// Two implementations:
//
//   - Fabric: the in-process model used by the simulated cluster. Remote
//     operations touch memory directly but are *charged*: per-(locale, op)
//     counters record message and byte counts, and an optional calibrated
//     busy-wait injects the latency asymmetry between local and remote
//     access that the paper's numbers depend on (a remote lock acquisition
//     is expensive; a node-local metadata read is not).
//   - Node/Client (node.go, client.go, writeq.go): a real transport over
//     net.Listener/net.Conn with a small length-prefixed binary protocol
//     implementing GET, PUT, and active messages, batched per connection.
//     It exists to demonstrate that the same operations run across
//     genuinely separate address spaces (examples/netarray) and to keep the
//     in-process model honest about what must be serializable.
package comm
