//! Digest pins for the two engines of `reproduce --scale`, at both
//! populations of its smoke profile.
//!
//! The n = 1000 pins were captured when `Shard` was still a hand-copied
//! engine. `PIN_WHEEL` is also the digest of the binary-heap engine the
//! timer wheel replaced: the wheel dispatches that engine's event sequence
//! byte for byte. The sharded pins are the only multi-shard digests in
//! tier-1: they move if the remote-send branch, the clamp of out-of-range
//! destinations to the last shard, or the mailbox drain order changes.

use experiments::{run_scale, ScaleParams};

const SEED: u64 = 2005;

const PIN_WHEEL: (u64, u64) = (0x10a5_2014_ae89_4639, 6926);
const PIN_SHARDED_4: (u64, u64) = (0x8f6d_0ce3_0835_5b02, 6937);
const PIN_WHEEL_N10K: (u64, u64) = (0x734d_4978_25b6_fc84, 69_174);
const PIN_SHARDED_4_N10K: (u64, u64) = (0x8302_682b_7e13_c8dd, 69_143);

#[test]
fn scale_smoke_replays_the_committed_engine_digests() {
    let params = ScaleParams::smoke(SEED);
    assert_eq!(params.populations, [1_000, 10_000]);
    assert_eq!(params.shard_threads, 4);
    let report = run_scale(&params);
    for (n, engine, pin) in [
        (1_000, "wheel", PIN_WHEEL),
        (1_000, "sharded", PIN_SHARDED_4),
        (10_000, "wheel", PIN_WHEEL_N10K),
        (10_000, "sharded", PIN_SHARDED_4_N10K),
    ] {
        let row = report.row(n, engine).expect("leg ran");
        println!(
            "{engine} n = {n}: {:#018x} ({} events)",
            row.digest, row.events
        );
        assert_eq!((row.digest, row.events), pin, "{engine} engine at n = {n}");
        assert!(row.deterministic, "{engine} engine must replay at n = {n}");
    }
}
