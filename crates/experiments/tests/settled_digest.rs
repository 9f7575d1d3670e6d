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
//! at n = 10⁴; this keeps the guarantee inside tier-1. The scenario is
//! the n = 10³ leg of `reproduce --scale --smoke`, read here through
//! `run_scale`, so the sweep and this pin run one scenario written once;
//! CI compares the n = 10⁴ leg's events and digest with
//! `BENCH_scale.json`.
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

use experiments::{run_scale, ScaleParams};
use simnet::SimDuration;

/// Event digest of the scenario.
const PIN_SETTLED_IDLE: u64 = 0xf871_30a1_722c_350d;

#[test]
fn settled_idle_overlay_replays_its_pinned_digest() {
    // The smoke profile's first leg of `reproduce --scale`: build, settle
    // (the builder's three virtual seconds), then idle for four.
    let params = ScaleParams {
        populations: vec![1_000],
        horizon: SimDuration::from_secs(4),
        seed: 2005,
    };
    let report = run_scale(&params);
    let row = report.row(1_000).expect("leg ran");
    println!("settled idle digest: {:#018x}", row.digest);
    assert_eq!(row.digest, PIN_SETTLED_IDLE);
    assert!(row.deterministic, "the leg must replay");
}
