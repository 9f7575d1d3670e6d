//! Digest pins for the three engines of `reproduce --scale`.
//!
//! Captured on the parent commit, when `Shard` was still a hand-copied
//! engine, and equal to the n = 1000 rows of the committed
//! `BENCH_scale.json`. The sharded pin is the only multi-shard digest in
//! tier-1: it moves if the remote-send branch, the clamp of out-of-range
//! destinations to the last shard, or the mailbox drain order changes.

use experiments::scale::{run_scale, ScaleParams};

const SEED: u64 = 2005;
const NODES: usize = 1000;

const PIN_LEGACY_AND_WHEEL: (u64, u64) = (0x10a5_2014_ae89_4639, 6926);
const PIN_SHARDED_4: (u64, u64) = (0x8f6d_0ce3_0835_5b02, 6937);

#[test]
fn scale_smoke_replays_the_committed_engine_digests() {
    let params = ScaleParams {
        populations: vec![NODES],
        ..ScaleParams::smoke(SEED)
    };
    assert_eq!(params.shard_threads, 4);
    let report = run_scale(&params);
    for (engine, pin) in [
        ("legacy", PIN_LEGACY_AND_WHEEL),
        ("wheel", PIN_LEGACY_AND_WHEEL),
        ("sharded", PIN_SHARDED_4),
    ] {
        let row = report.row(NODES, engine).expect("leg ran");
        println!("{engine}: {:#018x} ({} events)", row.digest, row.events);
        assert_eq!((row.digest, row.events), pin, "{engine} engine");
        assert!(row.deterministic, "{engine} engine must replay");
    }
}
