//! Churn resilience: the paper's Section IV methodology in one command.
//!
//! Builds a steady-state TreeP topology, removes nodes in steps until only a
//! fraction survives, and reports — for the three routing algorithms — the
//! failed-lookup percentage and the hop statistics at every step, plus the
//! maintenance overhead. This is the data behind Figures A, B and E.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p experiments --example churn_resilience [nodes] [seed]
//! ```

use experiments::{
    extract_figure, maintenance_table, run_churn_experiment, ExperimentParams, Figure,
};

fn main() {
    let mut args = std::env::args().skip(1);
    let nodes: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(400);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(2005);

    let params = ExperimentParams::paper_fixed(nodes, seed).with_lookups_per_step(60);
    println!(
        "running the paper's churn schedule on {nodes} nodes (nc = 4, 5% failures per step, down to 5% survivors)…"
    );
    let result = run_churn_experiment(&params);

    println!(
        "steady state: height {}, {:.1} children per parent, {} orphans\n",
        result.steady_state.height, result.steady_state.avg_children, result.steady_state.orphans
    );

    let failed = extract_figure(Figure::A, &result, None);
    println!(
        "{}",
        failed
            .to_table("Failed lookups (%) per routing algorithm")
            .render()
    );

    let hops = extract_figure(Figure::B, &result, None);
    println!(
        "{}",
        hops.to_table("Mean hops per routing algorithm").render()
    );

    let envelope = extract_figure(Figure::E, &result, None);
    println!(
        "{}",
        envelope
            .to_table("Min / max hops reached by failed lookups (greedy)")
            .render()
    );

    println!("{}", maintenance_table(&[&result]).render());

    // Summarise the headline numbers the paper quotes.
    if let Some(step30) = result.step_at(0.30) {
        let g = step30.algo(treep::RoutingAlgorithm::Greedy).unwrap();
        println!(
            "at ~30% failed nodes the greedy algorithm loses {:.1}% of lookups (paper: ~10%)",
            g.failed_pct()
        );
    }
    if let Some(step50) = result.step_at(0.50) {
        let g = step50.algo(treep::RoutingAlgorithm::Greedy).unwrap();
        println!(
            "at ~50% failed nodes the greedy algorithm loses {:.1}% of lookups (paper: 25-30%)",
            g.failed_pct()
        );
    }
}
