//! Maintenance-overhead ablation.
//!
//! One of TreeP's claims is that the overlay is maintained "while limiting
//! the overhead introduced by the overlay maintenance". Every churn step
//! records the traffic of its settle window (keep-alives, child reports,
//! election / demotion traffic) in
//! [`StepMeasurement::maintenance_messages`](crate::StepMeasurement) and,
//! normalised per alive node, in `maintenance_per_node`; this module renders
//! that overhead-vs-churn curve (`reproduce --maintenance`).

use crate::runner::ChurnRunResult;
use analysis::{Cell, Table};

/// Render the overhead of one or more runs side by side.
pub fn maintenance_table(results: &[&ChurnRunResult]) -> Table {
    let mut header = vec!["failed %".to_string()];
    header.extend(
        results
            .iter()
            .map(|r| format!("{} msgs/node", r.policy_label)),
    );
    let columns = header.into_iter().map(|heading| ("", heading));
    let mut table = Table::new("Maintenance overhead per settle window", columns);
    let steps = results.first().map_or(0, |r| r.steps.len());
    for i in 0..steps {
        let mut row = vec![results[0].steps[i].failed_fraction * 100.0];
        for r in results {
            let step = r.steps.get(i);
            row.push(step.map_or(f64::NAN, |s| s.maintenance_per_node));
        }
        table.push_row(row.into_iter().map(|v| Cell::float(v, 2, 2)));
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ExperimentParams;
    use crate::runner::run_churn_experiment;

    fn result() -> ChurnRunResult {
        run_churn_experiment(&ExperimentParams::quick(100, 41).with_lookups_per_step(5))
    }

    #[test]
    fn every_step_is_measured() {
        for step in &result().steps {
            assert!(
                step.maintenance_messages > 0,
                "the maintenance protocol always sends keep-alives"
            );
            assert!(step.maintenance_per_node > 0.0);
        }
    }

    #[test]
    fn per_node_overhead_is_bounded() {
        for step in &result().steps {
            let per_node = step.maintenance_per_node;
            // A 2-second settle window with 500 ms keep-alives and a handful
            // of neighbours: the overhead must stay well below 200 messages
            // per node ("keeping control messages to a minimum").
            assert!(
                per_node < 200.0,
                "{per_node} messages/node is runaway maintenance"
            );
        }
    }

    #[test]
    fn series_and_table_cover_all_steps() {
        let r = result();
        let table = maintenance_table(&[&r, &r]);
        assert_eq!(table.len(), r.steps.len());
        assert!(maintenance_table(&[]).is_empty());
    }
}
