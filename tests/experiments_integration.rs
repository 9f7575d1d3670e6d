//! Cross-crate integration: the experiment harness reproduces the paper's
//! qualitative results end to end (small populations, so the suite stays
//! fast).

use experiments::{extract_figure, hop_surface, run_churn_experiment, ExperimentParams, Figure};
use treep::RoutingAlgorithm;

fn quick_run() -> experiments::ChurnRunResult {
    run_churn_experiment(&ExperimentParams::quick(150, 2005).with_lookups_per_step(25))
}

#[test]
fn failure_rate_grows_with_churn_but_stays_reasonable() {
    let result = quick_run();
    let first = result.steps.first().unwrap();
    let last = result.steps.last().unwrap();
    for algorithm in RoutingAlgorithm::ALL {
        let early = first.algo(algorithm).unwrap().failed_pct();
        let late = last.algo(algorithm).unwrap().failed_pct();
        assert!(
            early <= 15.0,
            "{algorithm}: {early:.0}% failures before any churn"
        );
        assert!(
            late >= early,
            "{algorithm}: churn cannot improve the failure rate"
        );
    }
}

#[test]
fn the_three_algorithms_stay_within_a_band_of_each_other() {
    // Paper: "these algorithms achieve similar performance with a fluctuation
    // of 2%". At this scale (150 nodes, 25 lookups per step) individual steps
    // are noisy, so compare the failure rates averaged over the whole churn
    // schedule: the three curves must stay within a modest band of each
    // other.
    let result = quick_run();
    let mut averages = Vec::new();
    for algorithm in RoutingAlgorithm::ALL {
        let rates: Vec<f64> = result
            .steps
            .iter()
            .filter_map(|s| s.algo(algorithm))
            .map(|a| a.failed_pct())
            .collect();
        averages.push(rates.iter().sum::<f64>() / rates.len().max(1) as f64);
    }
    let min = averages.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = averages.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    assert!(
        max - min <= 20.0,
        "average failure rates diverged by {:.0} percentage points across algorithms: {averages:?}",
        max - min
    );
}

#[test]
fn hop_surfaces_peak_at_a_small_hop_count() {
    let result = quick_run();
    for algorithm in [RoutingAlgorithm::Greedy, RoutingAlgorithm::NonGreedy] {
        let surface = hop_surface(&result, algorithm);
        assert_eq!(surface.rows().len(), result.steps.len());
        // On the intact topology the bulk of the requests resolve in few hops.
        let (_, intact) = &surface.rows()[0];
        let mode = intact.mode().unwrap_or(0);
        assert!(
            mode <= 8,
            "{algorithm}: hop mode {mode} is far from the paper's 4-5"
        );
        assert!(intact.cumulative_percentage(10) > 80.0);
    }
}

#[test]
fn every_figure_extracts_and_renders_from_real_runs() {
    let fixed = quick_run();
    let adaptive = run_churn_experiment(
        &ExperimentParams::quick(150, 2005)
            .with_lookups_per_step(25)
            .with_adaptive_policy(),
    );
    for figure in Figure::ALL {
        let data = extract_figure(figure, &fixed, Some(&adaptive));
        let table = data.to_table(&format!("Figure {figure}"));
        let rendered = table.render();
        assert!(
            rendered.lines().count() >= 3,
            "figure {figure} rendered almost nothing:\n{rendered}"
        );
        let csv = table.to_csv();
        assert!(
            csv.lines().count() >= 2,
            "figure {figure} produced an empty CSV"
        );
    }
}

#[test]
fn fixed_and_adaptive_policies_build_different_hierarchies() {
    let fixed = quick_run();
    let adaptive = run_churn_experiment(
        &ExperimentParams::quick(150, 2005)
            .with_lookups_per_step(25)
            .with_adaptive_policy(),
    );
    assert_eq!(fixed.policy_label, "nc=4");
    assert_eq!(adaptive.policy_label, "nc=variable");
    // The adaptive hierarchy is flatter or equal (larger tessellations).
    assert!(adaptive.steady_state.height <= fixed.steady_state.height);
    // Both reproduce the headline claim: most lookups succeed before churn.
    for r in [&fixed, &adaptive] {
        let first = r.steps.first().unwrap();
        let g = first.algo(RoutingAlgorithm::Greedy).unwrap();
        assert!(g.failed_pct() <= 15.0);
    }
}
