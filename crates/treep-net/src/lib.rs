//! # treep-net — a real UDP transport for TreeP nodes
//!
//! The paper describes TreeP as "a UDP based overlay architecture" and the
//! future-work section plans a deployment on the Grid'5000 test bed. The
//! protocol implementation in the `treep` crate is a sans-IO state machine,
//! so the exact same code that runs under the discrete-event simulator can be
//! driven by real sockets. This crate provides that driver:
//!
//! * [`codec`] — a compact, hand-rolled binary encoding of
//!   [`treep::TreePMessage`] and of the datagrams that carry them.
//! * [`transport::UdpNode`] — a host on one thread: a receive loop that
//!   decodes datagrams into protocol events and, once every 10 ms, fires the
//!   `Context::set_timer` requests that fell due on the wall clock.
//!
//! Transport addresses are encoded losslessly into [`simnet::NodeAddr`]
//! (IPv4 address + port packed into the `u64`), so `PeerInfo` entries carried
//! in protocol messages work unchanged over the real network.
//!
//! ```no_run
//! use treep::{NodeCharacteristics, NodeId, RoutingAlgorithm, TreePConfig};
//! use treep_net::UdpNode;
//!
//! let seed = UdpNode::bind("127.0.0.1:0", TreePConfig::default(), NodeId(1_000),
//!                          NodeCharacteristics::strong(), Vec::new()).unwrap();
//! let peer = UdpNode::bind("127.0.0.1:0", TreePConfig::default(), NodeId(9_999),
//!                          NodeCharacteristics::default(), vec![seed.peer_info()]).unwrap();
//! peer.lookup(NodeId(1_000), RoutingAlgorithm::Greedy);
//! ```

#![warn(missing_docs, unreachable_pub)]
#![forbid(unsafe_code)]

pub mod codec; // public: `benchmark/` calls `encode_batch` and `decode_datagram` by path, and `tests/alloc_budget.rs` the receive loop's `decode_datagram_into`
mod transport;

pub use codec::{decode_message, encode_message, CodecError};
pub use transport::{TransportStats, UdpNode};
