//! Digest-pinned proof that the flat peer registry is behaviourally
//! identical to the B-tree registry it replaced.
//!
//! The constant below was captured on the parent commit — `RoutingTables`
//! still a `BTreeMap` registry plus six `BTreeSet` role indexes — **before**
//! the rewrite. A settled 1000-node overlay idling for four virtual seconds
//! runs every maintenance path the registry serves (keep-alive gossip, ring
//! tightening, child reports, expiry, level-0 pruning, parent adoption):
//! any change to an iteration order or a tie-break in `tables.rs` moves at
//! least one message and with it this digest. The benchmark checks the same
//! at n = 10⁴; this keeps the guarantee inside tier-1.

use simnet::{SimConfig, SimDuration, Simulation};
use workloads::TopologyBuilder;

const SEED: u64 = 2005;
const NODES: usize = 1000;

/// Event digest of the scenario on the parent commit (B-tree registry).
const PIN_SETTLED_IDLE: u64 = 0x485d_088a_77ac_0d59;

#[test]
fn settled_idle_overlay_replays_the_btree_registry_digest() {
    let mut sim = Simulation::new(SimConfig::default(), SEED);
    sim.enable_digest();
    let topo = TopologyBuilder::new(NODES).build(&mut sim);
    assert_eq!(topo.len(), NODES);
    // Settle (the builder's default three virtual seconds), then idle.
    sim.run_for(SimDuration::from_secs(3));
    sim.run_for(SimDuration::from_secs(4));
    let got = sim.event_digest().unwrap();
    println!("settled idle digest: {got:#018x}");
    assert_eq!(got, PIN_SETTLED_IDLE);
}
