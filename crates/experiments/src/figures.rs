//! The paper's figures (Section IV, Figures A–I), each declared once in
//! [`FIGURES`], computed from the churn runs of K seeds (K = 1 is one run)
//! and held against the numbers the paper reads off it.

use crate::params::ExperimentParams;
use crate::runner::{run_churn_experiment, AlgoStepStats, ChurnRunResult};
use analysis::{Cell, Column, HopHistogram, HopSurface, SeriesSet, SummaryStats, Table};
use std::collections::{BTreeMap, BTreeSet};
use treep::RoutingAlgorithm;

/// The churn runs of one seed: the fixed-`nc` run and, when a figure reads
/// it, the variable-`nc` run.
#[derive(Debug, Clone)]
pub struct SeedRuns {
    /// The run with `nc = 4`.
    pub fixed: ChurnRunResult,
    /// The run with the capability-driven `nc`.
    pub variable: Option<ChurnRunResult>,
}

impl SeedRuns {
    /// Run `params`, and when `variable` the same with the variable-`nc`
    /// policy.
    pub fn run(params: &ExperimentParams, variable: bool) -> SeedRuns {
        SeedRuns {
            fixed: run_churn_experiment(params),
            variable: variable.then(|| run_churn_experiment(&params.with_adaptive_policy())),
        }
    }

    fn variable(&self) -> &ChurnRunResult {
        self.variable
            .as_ref()
            .expect("the variable-nc run was asked for")
    }
}

/// A number the paper reads off a figure, `(series, x, low, high)`: the
/// series at `x` lies in `[low, high]`. A range "25–30 %" is `[25, 30]`;
/// "~v" is `[0.75·v, 1.25·v]`.
pub type Reading = (&'static str, f64, f64, f64);

/// "~`v`" at `x`.
const fn about(series: &'static str, x: f64, v: f64) -> Reading {
    (series, x, 0.75 * v, 1.25 * v)
}

/// Figures A and C: ~10 % failed lookups at 30 % failed nodes and 25–30 %
/// at 50 %, for every algorithm ("all three within ~2 %" is a spread, not
/// a point).
const FAILED_LOOKUPS: &[Reading] = &[
    about("G", 30.0, 10.0),
    ("G", 50.0, 25.0, 30.0),
    about("NG", 30.0, 10.0),
    ("NG", 50.0, 25.0, 30.0),
    about("NGSA", 30.0, 10.0),
    ("NGSA", 50.0, 25.0, 30.0),
];

/// Figure B: ~5 hops whatever the failure rate, read on the intact overlay
/// and where Figure A is.
const MEAN_HOPS: &[Reading] = &[
    about("G", 0.0, 5.0),
    about("G", 30.0, 5.0),
    about("G", 50.0, 5.0),
    about("NG", 0.0, 5.0),
    about("NG", 30.0, 5.0),
    about("NG", 50.0, 5.0),
    about("NGSA", 0.0, 5.0),
    about("NGSA", 30.0, 5.0),
    about("NGSA", 50.0, 5.0),
];

/// What a figure draws.
#[derive(Debug, Clone, Copy)]
pub enum Plot {
    /// Curves over % failed nodes from one seed's runs; over K seeds, the
    /// median and quartiles of each series per x. They count failures or
    /// hops: below a reading's band is better than the paper.
    Curves(fn(&SeedRuns) -> SeriesSet),
    /// The hop-count surface of one algorithm; over K seeds, each step's
    /// histograms pooled. A reading names a hop count as `hops_h`, and more
    /// requests on the paper's ridge than it reads is better.
    Surface(RoutingAlgorithm),
}

/// One figure of the paper's evaluation.
#[derive(Debug)]
pub struct Figure {
    /// "A" … "I".
    pub label: &'static str,
    /// What it plots, in one line.
    pub description: &'static str,
    /// True when it reads the variable-`nc` runs.
    pub variable_nc: bool,
    /// How it is drawn.
    pub plot: Plot,
    /// The numbers the paper reads off it.
    pub readings: &'static [Reading],
}

/// Every figure of Section IV, in paper order.
pub static FIGURES: [Figure; 9] = [
    Figure {
        label: "A",
        description: "% failed lookups vs % failed nodes (G/NG/NGSA, nc=4)",
        variable_nc: false,
        plot: Plot::Curves(|runs| algorithm_curves(&runs.fixed, AlgoStepStats::failed_pct)),
        readings: FAILED_LOOKUPS,
    },
    Figure {
        label: "B",
        description: "mean hops vs % failed nodes (G/NG/NGSA, nc=4)",
        variable_nc: false,
        plot: Plot::Curves(|runs| algorithm_curves(&runs.fixed, AlgoStepStats::mean_hops)),
        readings: MEAN_HOPS,
    },
    Figure {
        label: "C",
        description: "% failed lookups vs % failed nodes (G/NG/NGSA, variable nc)",
        variable_nc: true,
        plot: Plot::Curves(|runs| algorithm_curves(runs.variable(), AlgoStepStats::failed_pct)),
        readings: FAILED_LOOKUPS, // "The same shape as Figure A."
    },
    Figure {
        label: "D",
        description: "mean hops vs % failed nodes, fixed vs variable nc",
        variable_nc: true,
        plot: Plot::Curves(|runs| hop_comparison_curves(&runs.fixed, runs.variable())),
        readings: &[], // "Variable nc grows with failures, fixed nc stays flat."
    },
    Figure {
        label: "E",
        description: "min/max hops of failed lookups vs % failed nodes (nc=4)",
        variable_nc: false,
        plot: Plot::Curves(|runs| failed_hop_envelope(&runs.fixed, RoutingAlgorithm::Greedy)),
        // "The maximum jumps once ~35 % of the nodes are gone."
        readings: &[("jump_at", 0.0, 30.0, 40.0)],
    },
    Figure {
        label: "F",
        description: "hop-count distribution surface (greedy, nc=4)",
        variable_nc: false,
        plot: Plot::Surface(RoutingAlgorithm::Greedy),
        readings: &[about("hops_4", 0.0, 50.0)], // "A sharp ridge at 4 hops."
    },
    Figure {
        label: "G",
        description: "hop-count distribution surface (non-greedy, nc=4)",
        variable_nc: false,
        plot: Plot::Surface(RoutingAlgorithm::NonGreedy),
        readings: &[about("hops_4", 0.0, 45.0)], // "A slightly lower peak."
    },
    Figure {
        label: "H",
        description: "hop-count distribution surface (greedy, variable nc)",
        variable_nc: true,
        plot: Plot::Surface(RoutingAlgorithm::Greedy),
        readings: &[about("hops_5", 0.0, 60.0)], // "A steeper ridge at 5 hops."
    },
    Figure {
        label: "I",
        description: "hop-count distribution surface (non-greedy, variable nc)",
        variable_nc: true,
        plot: Plot::Surface(RoutingAlgorithm::NonGreedy),
        readings: &[about("hops_5", 0.0, 60.0)], // "The same as H."
    },
];

impl Figure {
    /// The figure labelled `label`, in either case.
    pub fn named(label: &str) -> Option<&'static Figure> {
        let label = label.trim();
        FIGURES.iter().find(|f| f.label.eq_ignore_ascii_case(label))
    }

    /// The run of one seed this figure reads.
    fn run<'a>(&self, runs: &'a SeedRuns) -> &'a ChurnRunResult {
        if self.variable_nc {
            runs.variable()
        } else {
            &runs.fixed
        }
    }

    /// One seed's values the readings are held against: its curves, or the
    /// % of requests at each hop count a reading names.
    fn series(&self, runs: &SeedRuns) -> SeriesSet {
        let algorithm = match self.plot {
            Plot::Curves(curves) => return curves(runs),
            Plot::Surface(algorithm) => algorithm,
        };
        let mut set = SeriesSet::new();
        for (fraction, histogram) in hop_surface(&[self.run(runs)], algorithm).rows() {
            for &(series, ..) in self.readings {
                let hops = series.strip_prefix("hops_").and_then(|h| h.parse().ok());
                let hops = hops.expect("a surface reading names a hop count");
                set.push(series, fraction * 100.0, histogram.percentage(hops));
            }
        }
        set
    }

    /// The figure over the runs of K seeds: per x the median and quartiles
    /// of each curve, or the surface of every step's histograms pooled. The
    /// aligned text shows two decimals of a curve and one of a surface; the
    /// CSV carries every value exactly.
    pub fn table(&self, runs: &[SeedRuns]) -> Table {
        let seed = |run: Option<&SeedRuns>| run.expect("a figure of at least one seed").fixed.seed;
        let (first, last) = (seed(runs.first()), seed(runs.last()));
        let seeds = if first == last {
            format!("seed {first}")
        } else {
            format!("seeds {first}–{last}")
        };
        let title = format!("Figure {} — {}", self.label, self.description);
        let algorithm = match self.plot {
            Plot::Curves(_) => {
                let per_seed: Vec<SeriesSet> = runs.iter().map(|r| self.series(r)).collect();
                let title = format!("{title} — median, q1, q3 over {seeds}");
                return quartile_table(&title, &per_seed);
            }
            Plot::Surface(algorithm) => algorithm,
        };
        let runs: Vec<&ChurnRunResult> = runs.iter().map(|r| self.run(r)).collect();
        let (hops, rows) = hop_surface(&runs, algorithm).to_grid();
        let mut columns = vec![("failed_pct".to_string(), "failed %".to_string())];
        columns.extend(
            hops.iter()
                .map(|h| (format!("hops_{h}"), format!("{h} hops"))),
        );
        let mut table = Table::new(format!("{title} — pooled over {seeds}"), columns);
        for row in rows {
            table.push_row(row.into_iter().map(|v| Cell::Float(v, None, 1)));
        }
        table
    }

    /// The figure's readings held against the runs of K seeds.
    pub fn compare(&self, runs: &[SeedRuns]) -> Vec<ReadingRow> {
        let per_seed: Vec<SeriesSet> = runs.iter().map(|r| self.series(r)).collect();
        let higher_is_better = matches!(self.plot, Plot::Surface(_));
        compare(self.label, higher_is_better, self.readings, &per_seed)
    }
}

/// Figures A–C: one value per algorithm and step, over % failed nodes.
fn algorithm_curves(result: &ChurnRunResult, value: fn(&AlgoStepStats) -> f64) -> SeriesSet {
    let mut set = SeriesSet::new();
    for step in &result.steps {
        for stats in &step.per_algorithm {
            let x = step.failed_fraction * 100.0;
            set.push(stats.algorithm.label(), x, value(stats));
        }
    }
    set
}

/// Figure D: mean hops (averaged over the three algorithms) of the fixed-`nc`
/// run against the variable-`nc` run.
fn hop_comparison_curves(fixed: &ChurnRunResult, adaptive: &ChurnRunResult) -> SeriesSet {
    let mut set = SeriesSet::new();
    for (label, result) in [("nc=4", fixed), ("nc=variable", adaptive)] {
        for step in &result.steps {
            let mean: f64 = step
                .per_algorithm
                .iter()
                .map(|a| a.mean_hops())
                .sum::<f64>()
                / step.per_algorithm.len().max(1) as f64;
            set.push(label, step.failed_fraction * 100.0, mean);
        }
    }
    set
}

/// Figure E: minimum and maximum hop counts reached by failed (dead-ended)
/// lookups, as a function of the percentage of failed nodes; and, at
/// x = 0, `jump_at`: the percentage at which the maximum rose most over
/// the previous step (the first such step on a tie).
fn failed_hop_envelope(result: &ChurnRunResult, algorithm: RoutingAlgorithm) -> SeriesSet {
    let mut set = SeriesSet::new();
    for step in &result.steps {
        if let Some(stats) = step.algo(algorithm) {
            let x = step.failed_fraction * 100.0;
            set.push("max", x, stats.failed_hops.max.max(stats.success_hops.max));
            set.push("min", x, stats.failed_hops.min.min(stats.success_hops.min));
        }
    }
    let max = set.get("max").map_or(&[][..], |series| &series.points);
    let rises = max.windows(2).map(|w| (w[1].1 - w[0].1, w[1].0));
    let jump = rises.reduce(|first, rise| if rise.0 > first.0 { rise } else { first });
    if let Some((_, x)) = jump {
        set.push("jump_at", 0.0, x);
    }
    set
}

/// Figures F–I: the hop-count distribution surface of one algorithm, each
/// step's histogram pooled over `runs` (runs of one churn schedule).
pub fn hop_surface(runs: &[&ChurnRunResult], algorithm: RoutingAlgorithm) -> HopSurface {
    let mut surface = HopSurface::new();
    let first = runs.first().expect("a surface of at least one run");
    for (i, step) in first.steps.iter().enumerate() {
        let mut pooled = HopHistogram::new();
        for run in runs {
            if let Some(stats) = run.steps.get(i).and_then(|s| s.algo(algorithm)) {
                pooled.merge(&stats.histogram);
            }
        }
        surface.push(step.failed_fraction, pooled);
    }
    surface
}

/// Per x, the median and the quartiles of each series over `per_seed`, one
/// [`SeriesSet`] per seed.
fn quartile_table(title: &str, per_seed: &[SeriesSet]) -> Table {
    // Series name → x → one y per seed; the x key is exact to 10⁻⁶ %.
    let mut samples: BTreeMap<String, BTreeMap<i64, Vec<f64>>> = BTreeMap::new();
    for set in per_seed {
        for name in &set.to_rows().0[1..] {
            let at = samples.entry(name.clone()).or_default();
            for &(x, y) in &set.get(name).expect("a listed series").points {
                at.entry(x_key(x)).or_default().push(y);
            }
        }
    }
    let xs: BTreeSet<i64> = samples.values().flat_map(|at| at.keys().copied()).collect();
    let mut columns = vec![("x".to_string(), "x".to_string())];
    for name in samples.keys() {
        columns.push((name.clone(), format!("{name} median")));
        columns.push((format!("{name}_q1"), "q1".to_string()));
        columns.push((format!("{name}_q3"), "q3".to_string()));
    }
    let mut table = Table::new(title, columns).meta("seeds", per_seed.len());
    for x in xs {
        let mut row = vec![Cell::Float(x as f64 / 1e6, None, 2)];
        for at in samples.values() {
            let [q1, median, q3] = at
                .get(&x)
                .map_or([f64::NAN; 3], |ys| SummaryStats::quartiles(ys));
            row.extend([median, q1, q3].map(|v| Cell::Float(v, None, 2)));
        }
        table.push_row(row);
    }
    table
}

/// An x coordinate as a key exact to 10⁻⁶.
fn x_key(x: f64) -> i64 {
    (x * 1e6).round() as i64
}

/// One reading of the paper held against the runs of K seeds: one row of
/// `BENCH_paper.json`.
#[derive(Debug, Clone)]
pub struct ReadingRow {
    /// The figure ("A" … "I", or "III.e nc=4").
    pub figure: String,
    /// What the paper reads; `None` for a figure that states no number.
    pub reading: Option<Reading>,
    /// q1, median and q3 of the series at x over the seeds.
    pub quartiles: [f64; 3],
    /// How far the median lies outside the band, positive when that is
    /// better than the paper; 0 inside it, NaN with nothing to compare.
    pub deviation: f64,
}

/// `readings` of `figure` held against `per_seed`, one [`SeriesSet`] per
/// seed: one row per reading, or one saying there is none.
pub(crate) fn compare(
    figure: &str,
    higher_is_better: bool,
    readings: &[Reading],
    per_seed: &[SeriesSet],
) -> Vec<ReadingRow> {
    let row = |reading: Option<Reading>| {
        let (series, x, low, high) = reading.unwrap_or(("", f64::NAN, f64::NAN, f64::NAN));
        let at_x = |set: &SeriesSet| {
            let points = &set.get(series)?.points;
            points.iter().find(|p| x_key(p.0) == x_key(x)).map(|p| p.1)
        };
        let ys: Vec<f64> = per_seed.iter().filter_map(at_x).collect();
        let quartiles = if ys.is_empty() {
            [f64::NAN; 3]
        } else {
            SummaryStats::quartiles(&ys)
        };
        let above = match quartiles[1] {
            median if median < low => median - low,
            median if median <= high => 0.0,
            median => median - high,
        };
        ReadingRow {
            figure: figure.to_string(),
            reading,
            quartiles,
            deviation: if higher_is_better { above } else { -above },
        }
    };
    if readings.is_empty() {
        return vec![row(None)];
    }
    readings.iter().map(|&reading| row(Some(reading))).collect()
}

/// `matches` when the median at every reading lies in its band, else
/// `deviates by d at x (series)` for the reading farthest outside; `no
/// numeric reading` for a figure that states no number.
pub fn verdict(rows: &[ReadingRow]) -> String {
    if rows.iter().all(|r| r.reading.is_none()) {
        return "no numeric reading".to_string();
    }
    // The first of the farthest outside its band, so a tie names the lowest x.
    let outside = rows.iter().filter(|r| r.deviation != 0.0);
    let farthest = outside.min_by(|a, b| b.deviation.abs().total_cmp(&a.deviation.abs()));
    match farthest.and_then(|row| Some((row.deviation, row.reading?))) {
        Some((d, (series, x, ..))) => format!("deviates by {d:+.1} at x = {x} ({series})"),
        None => "matches".to_string(),
    }
}

/// `rows` as the `BENCH_paper.json` table: the figure, the reading, the
/// median and quartiles over the seeds, and the reading's own verdict.
pub fn paper_table(rows: &[ReadingRow]) -> Table {
    fn number(value: f64) -> Cell {
        Cell::float(value, 2, 2)
    }
    fn of(row: &ReadingRow, part: fn(Reading) -> f64) -> Cell {
        number(row.reading.map_or(f64::NAN, part))
    }
    let columns = [
        Column::new("figure", "figure", |r: &ReadingRow| Cell::text(&r.figure)),
        Column::new("series", "series", |r| {
            Cell::text(r.reading.map_or("", |r| r.0))
        }),
        Column::new("x", "x", |r| of(r, |r| r.1)),
        Column::new("paper_low", "paper low", |r| of(r, |r| r.2)),
        Column::new("paper_high", "paper high", |r| of(r, |r| r.3)),
        Column::new("median", "median", |r| number(r.quartiles[1])),
        Column::new("q1", "q1", |r| number(r.quartiles[0])),
        Column::new("q3", "q3", |r| number(r.quartiles[2])),
        Column::new("verdict", "verdict", |r| {
            Cell::text(verdict(std::slice::from_ref(r)))
        }),
    ];
    Table::of("The paper's readings against the runs", &columns, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(variable: bool) -> SeedRuns {
        let params = ExperimentParams::quick(100, 21).with_lookups_per_step(15);
        SeedRuns::run(&params, variable)
    }

    #[test]
    fn figure_parsing_round_trips() {
        for figure in &FIGURES {
            assert!(std::ptr::eq(Figure::named(figure.label).unwrap(), figure));
            let lower = figure.label.to_lowercase();
            assert!(std::ptr::eq(Figure::named(&lower).unwrap(), figure));
            assert!(!figure.description.is_empty());
        }
        assert!(Figure::named("z").is_none());
        assert!(Figure::named("").is_none());
    }

    #[test]
    fn adaptive_requirement_matches_the_paper() {
        let variable: String = FIGURES
            .iter()
            .filter(|f| f.variable_nc)
            .map(|f| f.label)
            .collect();
        assert_eq!(variable, "CDHI");
    }

    #[test]
    fn curve_extraction_produces_three_algorithms() {
        let r = runs(false).fixed;
        let failed = algorithm_curves(&r, AlgoStepStats::failed_pct);
        assert_eq!(failed.to_rows().0, ["x", "G", "NG", "NGSA"]);
        for algo in RoutingAlgorithm::ALL {
            let series = failed.get(algo.label()).unwrap();
            assert_eq!(series.points.len(), r.steps.len());
            assert!(series.points.iter().all(|(_, y)| (0.0..=100.0).contains(y)));
        }
        let hops = algorithm_curves(&r, AlgoStepStats::mean_hops);
        assert_eq!(hops.to_rows().0, ["x", "G", "NG", "NGSA"]);
    }

    #[test]
    fn surfaces_cover_every_step() {
        let r = runs(false).fixed;
        let surface = hop_surface(&[&r], RoutingAlgorithm::Greedy);
        assert_eq!(surface.rows().len(), r.steps.len());
        assert!(surface.max_hops() < 40);
    }

    #[test]
    fn a_surface_over_two_seeds_adds_their_hop_counts() {
        let params = ExperimentParams::quick(80, 5).with_lookups_per_step(10);
        let a = run_churn_experiment(&params);
        let b = run_churn_experiment(&ExperimentParams { seed: 6, ..params });
        let pooled = hop_surface(&[&a, &b], RoutingAlgorithm::Greedy);
        let one = hop_surface(&[&a], RoutingAlgorithm::Greedy);
        let two = hop_surface(&[&b], RoutingAlgorithm::Greedy);
        assert_eq!(pooled.rows().len(), a.steps.len());
        for (i, (x, histogram)) in pooled.rows().iter().enumerate() {
            assert_eq!(*x, a.steps[i].failed_fraction);
            let mut sum = one.rows()[i].1.clone();
            sum.merge(&two.rows()[i].1);
            assert_eq!(*histogram, sum, "step {i}");
        }
    }

    #[test]
    fn envelope_orders_min_below_max() {
        let r = runs(false).fixed;
        let env = failed_hop_envelope(&r, RoutingAlgorithm::Greedy);
        let max = env.get("max").unwrap();
        let min = env.get("min").unwrap();
        for (pmax, pmin) in max.points.iter().zip(&min.points) {
            assert!(pmax.1 >= pmin.1);
        }
        // The jump sits at the step whose maximum rose most, the first of
        // equal rises.
        let rises: Vec<(f64, f64)> = max
            .points
            .windows(2)
            .map(|w| (w[1].0, w[1].1 - w[0].1))
            .collect();
        let largest = rises.iter().map(|r| r.1).fold(f64::NEG_INFINITY, f64::max);
        let first = rises.iter().find(|r| r.1 == largest).unwrap().0;
        assert_eq!(env.get("jump_at").unwrap().points, [(0.0, first)]);
    }

    #[test]
    fn extract_covers_every_figure_and_renders() {
        let runs = [runs(true)];
        let mut rows = Vec::new();
        for figure in &FIGURES {
            let table = figure.table(&runs);
            assert!(!table.is_empty(), "figure {} rendered empty", figure.label);
            assert!(table.to_csv().lines().count() > 1);
            let compared = figure.compare(&runs);
            assert_eq!(compared.len(), figure.readings.len().max(1));
            for row in &compared {
                assert_eq!(row.quartiles[1].is_finite(), row.reading.is_some());
            }
            rows.extend(compared);
        }
        // One row per reading, and one for each figure without any.
        let table = paper_table(&rows);
        assert_eq!(table.len(), 6 + 9 + 6 + 1 + 1 + 4);
        assert!(analysis::validate_json(&table.to_json()).is_ok());
    }

    #[test]
    fn quartiles_are_taken_per_series_and_x_over_the_seeds() {
        let per_seed: Vec<SeriesSet> = [10.0, 40.0, 20.0, 30.0]
            .iter()
            .map(|g| {
                let mut set = SeriesSet::new();
                set.push("G", 0.0, 0.0);
                set.push("G", 5.0, *g);
                set.push("NG", 5.0, 1.0);
                set
            })
            .collect();
        let csv = quartile_table("A", &per_seed).to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "x,G,G_q1,G_q3,NG,NG_q1,NG_q3");
        assert_eq!(lines[1], "0,0,0,0,NaN,NaN,NaN");
        assert_eq!(lines[2], "5,25,17.5,32.5,1,1,1");
    }

    #[test]
    fn a_reading_matches_inside_its_band_and_deviates_outside_it() {
        let mut set = SeriesSet::new();
        set.push("G", 30.0, 12.0);
        set.push("G", 50.0, 40.0);
        let per_seed = [set];
        let inside = ("G", 30.0, 7.5, 12.5);
        assert_eq!(
            verdict(&compare("A", false, &[inside], &per_seed)),
            "matches"
        );
        let rows = compare("A", false, &[inside, ("G", 50.0, 25.0, 30.0)], &per_seed);
        assert_eq!(rows[1].deviation, -10.0);
        assert_eq!(verdict(&rows), "deviates by -10.0 at x = 50 (G)");
        // Above the band is better where higher is better.
        let rows = compare("F", true, &[("G", 50.0, 25.0, 30.0)], &per_seed);
        assert_eq!(verdict(&rows), "deviates by +10.0 at x = 50 (G)");
        let none = compare("D", false, &[], &per_seed);
        assert_eq!(verdict(&none), "no numeric reading");
    }

    #[test]
    fn comparison_curves_have_two_labels() {
        let r = runs(false).fixed;
        let cmp = hop_comparison_curves(&r, &r);
        assert_eq!(cmp.to_rows().0, ["x", "nc=4", "nc=variable"]);
    }
}
