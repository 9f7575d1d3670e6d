//! Digest pin of the maintenance protocol on a settled, idle overlay.
//!
//! A settled 1000-node overlay idling for four virtual seconds runs every
//! maintenance path there is (keep-alive gossip and the decision whether
//! to acknowledge it, ring tightening, child reports, expiry, level-0
//! pruning, parent adoption). Any change to what a node sends and when, or
//! to an iteration order or a tie-break in `tables.rs`, moves at least one
//! message and with it this digest — so a refactor that claims to change
//! nothing must leave the constant alone, and a change of the protocol
//! re-pins it once, on purpose, and says so. The benchmark checks the same
//! at n = 10⁴; this keeps the guarantee inside tier-1.
//!
//! History of the constant: `0x485d_088a_77ac_0d59` was captured on the
//! B-tree peer registry and survived its replacement by the flat one
//! unchanged (PR 15, which is what this test was written to prove). PR 18
//! moved it by design: a keep-alive is no longer acknowledged by a node
//! that pings the sender itself. PR 21 moved it by design
//! (`0xc264_7a4a_4533_ee4b` before): the four superiors a keep-alive
//! advertises are a window that moves on every round instead of the first
//! four in identifier order, so tables fill differently. PR 25 moved it by
//! design (`0xf249_8ba3_0345_87d9` before): an entry stamped on the gossip
//! horizon is second-hand and no longer advertised, in the instant it is
//! learned or during a run's first gossip penalty. It moved by design again
//! (`0x1c1a_c4c7_8698_471c` before) when a node began to send one
//! keep-alive per peer and round, and none to its parent or its own
//! children, whose link the child report refreshes.

use simnet::{SimConfig, SimDuration, Simulation};
use workloads::TopologyBuilder;

const SEED: u64 = 2005;
const NODES: usize = 1000;

/// Event digest of the scenario.
const PIN_SETTLED_IDLE: u64 = 0xf871_30a1_722c_350d;

#[test]
fn settled_idle_overlay_replays_its_pinned_digest() {
    let mut sim = Simulation::new(SimConfig::default(), SEED);
    sim.enable_digest();
    let topo = TopologyBuilder::new(NODES).build(&mut sim);
    assert_eq!(topo.nodes.len(), NODES);
    // Settle (the builder's default three virtual seconds), then idle.
    sim.run_for(SimDuration::from_secs(3));
    sim.run_for(SimDuration::from_secs(4));
    let got = sim.event_digest().unwrap();
    println!("settled idle digest: {got:#018x}");
    assert_eq!(got, PIN_SETTLED_IDLE);
}
