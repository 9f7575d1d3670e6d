//! Figures A–I — the paper's churn evaluation (Section IV) at n = 200.
//!
//! All nine figures are views of two churn runs: one with the fixed
//! `nc = 4` child policy and one with the capability-driven (variable `nc`)
//! policy. The bench performs and times each run once, then prints every
//! figure's table and measures its extractor.

use criterion::{criterion_group, criterion_main, Criterion};
use experiments::{figures, run_churn_experiment, ExperimentParams, Figure};
use std::hint::black_box;

fn bench_figures(c: &mut Criterion) {
    let fixed_params = ExperimentParams::quick(200, 2005).with_lookups_per_step(40);
    let adaptive_params = fixed_params.with_adaptive_policy();

    let mut group = c.benchmark_group("figures");
    group.sample_size(10);
    let (mut fixed, mut adaptive) = (None, None);
    group.bench_function("churn_run_nc4_n200", |b| {
        b.iter(|| fixed = Some(run_churn_experiment(&fixed_params)))
    });
    group.bench_function("churn_run_adaptive_n200", |b| {
        b.iter(|| adaptive = Some(run_churn_experiment(&adaptive_params)))
    });
    let (fixed, adaptive) = (fixed.expect("run timed"), adaptive.expect("run timed"));

    for figure in Figure::ALL {
        let extract = || figures::extract(figure, &fixed, Some(&adaptive));
        let title = format!("Figure {figure} — {}", figure.description());
        println!("{}", extract().to_table(&title).render());
        group.bench_function(format!("extract_{figure}"), |b| {
            b.iter(|| black_box(extract()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_figures);
criterion_main!(benches);
