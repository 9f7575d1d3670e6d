//! Digest pin of everything the quick experiment suite renders.
//!
//! Every driver of this crate is deterministic in simulated time, so the
//! text it prints is a function of the seed alone: Figures A–I as tables
//! and CSVs from the two churn runs at `ExperimentParams::quick(200, 2005)`,
//! the maintenance table and the two Section III.e tables of the same runs,
//! and the durability (table and CSV), lossy-multicast, multicast and
//! overlay-comparison smoke tables.
//! One FNV-1a digest over all of it, in that order, is what a refactor of
//! the harness or of the renderers is held to: a change that claims to
//! move no number and no column leaves the constant alone; a change of the
//! protocol, of a workload or of a rendering re-pins it once, on purpose,
//! and says old → new. The constant was captured at `2eaf9a3`, the commit
//! before the drivers were folded into one harness, and that fold (PR 22)
//! left it where it was. PR 25 moved it by design (`0x94a5_2af4_8517_3835`
//! before): an entry stamped on the gossip horizon is no longer advertised.
//! It moved by design again (`0x55be_3e7e_dd78_556f` before): one keep-alive
//! per peer and round, none to the parent or an own child. It moved once
//! more when every figure went through one path over seeds
//! (`0xc981_377a_bab8_a9c4` before): a curve's table gained its q1 and q3
//! columns, every title names its seeds, and the Section III.e tables of
//! both runs joined the suite. No value moved. It moved by design once
//! more (`0x29f1_931c_4940_de14` before): older evidence no longer raises a
//! routing entry's level. It moved by design once more
//! (`0x96e0_c4a7_4c1f_a304` before): the builder sizes each variable-nc
//! tessellation from its leader's capacity, so the variable-nc run is built
//! without an overfull parent. The fixed-nc plan did not change. It moved
//! once more (`0x92f8_f796_e4d9_cbbd` before): Figure E's table gained the
//! `jump_at` column its reading is held to. No value moved.

use experiments::{
    compare_multicast, compare_overlays, maintenance_table, routing_table_report, run_durability,
    sweep_multicast_loss, DurabilityParams, ExperimentParams, LossSweepParams, MulticastParams,
    SeedRuns, FIGURES,
};

const SEED: u64 = 2005;

/// FNV-1a digest of the rendered suite.
const PIN_RENDERED_SUITE: u64 = 0x2c95_d315_bbde_eb05;

fn fnv1a(digest: u64, text: &str) -> u64 {
    text.bytes().fold(digest, |d, byte| {
        (d ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn quick_suite_renders_its_pinned_digest() {
    let runs = [SeedRuns::run(&ExperimentParams::quick(200, SEED), true)];
    let (fixed, adaptive) = (&runs[0].fixed, runs[0].variable.as_ref().unwrap());
    let durability = run_durability(&DurabilityParams::smoke(SEED));

    let mut rendered = Vec::new();
    for figure in &FIGURES {
        let table = figure.table(&runs);
        rendered.push(table.render());
        rendered.push(table.to_csv());
    }
    rendered.push(maintenance_table(&[fixed, adaptive]).render());
    for run in [fixed, adaptive] {
        rendered.push(routing_table_report(&[run]).to_table().render());
    }
    rendered.push(durability.to_table().render());
    rendered.push(durability.to_table().to_csv());
    rendered.push(
        sweep_multicast_loss(&LossSweepParams::smoke(SEED))
            .to_table()
            .render(),
    );
    rendered.push(
        compare_multicast(&MulticastParams::quick(200, SEED))
            .to_table()
            .render(),
    );
    rendered.push(
        compare_overlays(200, SEED, &[0.0, 0.2, 0.4], 20)
            .to_table()
            .render(),
    );

    let got = rendered
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |d, text| fnv1a(d, text));
    println!("rendered suite digest: {PIN_RENDERED_SUITE:#018x} -> {got:#018x}");
    assert_eq!(got, PIN_RENDERED_SUITE);
}
