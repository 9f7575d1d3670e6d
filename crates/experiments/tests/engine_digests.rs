//! Digest pins for the engine of `reproduce --scale`, at both populations
//! of its smoke profile.
//!
//! `PIN_WHEEL` is also the digest of the binary-heap engine the timer
//! wheel replaced: the wheel dispatches that engine's event sequence byte
//! for byte.

use experiments::{run_scale, ScaleParams};

const SEED: u64 = 2005;

const PIN_WHEEL: (u64, u64) = (0x10a5_2014_ae89_4639, 6926);
const PIN_WHEEL_N10K: (u64, u64) = (0x734d_4978_25b6_fc84, 69_174);

#[test]
fn scale_smoke_replays_the_committed_engine_digests() {
    let params = ScaleParams::smoke(SEED);
    assert_eq!(params.populations, [1_000, 10_000]);
    let report = run_scale(&params);
    for (n, pin) in [(1_000, PIN_WHEEL), (10_000, PIN_WHEEL_N10K)] {
        let row = report.row(n).expect("leg ran");
        println!("n = {n}: {:#018x} ({} events)", row.digest, row.events);
        assert_eq!((row.digest, row.events), pin, "engine at n = {n}");
        assert!(row.deterministic, "engine must replay at n = {n}");
    }
}
