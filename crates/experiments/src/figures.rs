//! Extraction and rendering of the paper's figures (Section IV, Figures A–I).

use crate::runner::ChurnRunResult;
use analysis::{Cell, HopSurface, SeriesSet, SummaryStats, Table};
use std::collections::{BTreeMap, BTreeSet};
use treep::RoutingAlgorithm;

/// The figures of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Figure {
    /// Figure A — % failed lookups vs % failed nodes, `nc = 4`.
    A,
    /// Figure B — mean hops vs % failed nodes, `nc = 4`.
    B,
    /// Figure C — % failed lookups vs % failed nodes, variable `nc`.
    C,
    /// Figure D — mean hops, fixed vs variable `nc`.
    D,
    /// Figure E — min / max hops of failed lookups vs % failed nodes.
    E,
    /// Figure F — hop-count surface, greedy, `nc = 4`.
    F,
    /// Figure G — hop-count surface, non-greedy, `nc = 4`.
    G,
    /// Figure H — hop-count surface, greedy, variable `nc`.
    H,
    /// Figure I — hop-count surface, non-greedy, variable `nc`.
    I,
}

impl Figure {
    /// Every figure, in paper order.
    pub const ALL: [Figure; 9] = [
        Figure::A,
        Figure::B,
        Figure::C,
        Figure::D,
        Figure::E,
        Figure::F,
        Figure::G,
        Figure::H,
        Figure::I,
    ];

    /// Parse a single-letter figure name (case-insensitive).
    pub fn parse(s: &str) -> Option<Figure> {
        match s.trim().to_ascii_uppercase().as_str() {
            "A" => Some(Figure::A),
            "B" => Some(Figure::B),
            "C" => Some(Figure::C),
            "D" => Some(Figure::D),
            "E" => Some(Figure::E),
            "F" => Some(Figure::F),
            "G" => Some(Figure::G),
            "H" => Some(Figure::H),
            "I" => Some(Figure::I),
            _ => None,
        }
    }

    /// Figure label ("A" … "I").
    pub fn label(self) -> &'static str {
        match self {
            Figure::A => "A",
            Figure::B => "B",
            Figure::C => "C",
            Figure::D => "D",
            Figure::E => "E",
            Figure::F => "F",
            Figure::G => "G",
            Figure::H => "H",
            Figure::I => "I",
        }
    }

    /// Which of the two paper configurations the figure needs. `true` when
    /// the variable-`nc` run is required (instead of, or in addition to, the
    /// fixed-`nc` run).
    pub fn needs_adaptive_run(self) -> bool {
        matches!(self, Figure::C | Figure::D | Figure::H | Figure::I)
    }

    /// True for the hop-count surfaces (F–I), false for the curves (A–E).
    pub fn is_surface(self) -> bool {
        matches!(self, Figure::F | Figure::G | Figure::H | Figure::I)
    }

    /// One-line description used by the `reproduce` binary.
    pub fn description(self) -> &'static str {
        match self {
            Figure::A => "% failed lookups vs % failed nodes (G/NG/NGSA, nc=4)",
            Figure::B => "mean hops vs % failed nodes (G/NG/NGSA, nc=4)",
            Figure::C => "% failed lookups vs % failed nodes (G/NG/NGSA, variable nc)",
            Figure::D => "mean hops vs % failed nodes, fixed vs variable nc",
            Figure::E => "min/max hops of failed lookups vs % failed nodes (nc=4)",
            Figure::F => "hop-count distribution surface (greedy, nc=4)",
            Figure::G => "hop-count distribution surface (non-greedy, nc=4)",
            Figure::H => "hop-count distribution surface (greedy, variable nc)",
            Figure::I => "hop-count distribution surface (non-greedy, variable nc)",
        }
    }
}

impl std::fmt::Display for Figure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The extracted data of one figure, ready to be rendered.
#[derive(Debug, Clone)]
pub enum FigureData {
    /// A set of curves over the failed-node percentage (Figures A–E).
    Curves(SeriesSet),
    /// A hop-count distribution surface (Figures F–I).
    Surface(HopSurface),
}

impl FigureData {
    /// The data as a table: the aligned text shows two decimals of a curve
    /// and one of a surface, the CSV carries every value exactly.
    pub fn to_table(&self, title: &str) -> Table {
        let (columns, rows, decimals) = match self {
            FigureData::Curves(set) => {
                let (header, rows) = set.to_rows();
                let columns = header.into_iter().map(|name| (name.clone(), name));
                (columns.collect::<Vec<_>>(), rows, 2)
            }
            FigureData::Surface(surface) => {
                let (hops, rows) = surface.to_grid();
                let mut columns = vec![("failed_pct".to_string(), "failed %".to_string())];
                columns.extend(
                    hops.iter()
                        .map(|h| (format!("hops_{h}"), format!("{h} hops"))),
                );
                (columns, rows, 1)
            }
        };
        let mut table = Table::new(title, columns);
        for row in rows {
            table.push_row(row.into_iter().map(|v| Cell::Float(v, None, decimals)));
        }
        table
    }
}

/// Figures A and C: percentage of failed lookups per algorithm, as a function
/// of the percentage of failed nodes.
pub(crate) fn failed_lookup_curves(result: &ChurnRunResult) -> SeriesSet {
    let mut set = SeriesSet::new();
    for step in &result.steps {
        for stats in &step.per_algorithm {
            set.push(
                stats.algorithm.label(),
                step.failed_fraction * 100.0,
                stats.failed_pct(),
            );
        }
    }
    set
}

/// Figures B: mean hops of successful lookups per algorithm, as a function of
/// the percentage of failed nodes.
pub(crate) fn mean_hop_curves(result: &ChurnRunResult) -> SeriesSet {
    let mut set = SeriesSet::new();
    for step in &result.steps {
        for stats in &step.per_algorithm {
            set.push(
                stats.algorithm.label(),
                step.failed_fraction * 100.0,
                stats.mean_hops(),
            );
        }
    }
    set
}

/// Figure D: mean hops (averaged over the three algorithms) of the fixed-`nc`
/// run against the variable-`nc` run.
pub(crate) fn hop_comparison_curves(
    fixed: &ChurnRunResult,
    adaptive: &ChurnRunResult,
) -> SeriesSet {
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
/// lookups, as a function of the percentage of failed nodes.
pub(crate) fn failed_hop_envelope(
    result: &ChurnRunResult,
    algorithm: RoutingAlgorithm,
) -> SeriesSet {
    let mut set = SeriesSet::new();
    for step in &result.steps {
        if let Some(stats) = step.algo(algorithm) {
            let x = step.failed_fraction * 100.0;
            set.push("max", x, stats.failed_hops.max.max(stats.success_hops.max));
            set.push("min", x, stats.failed_hops.min.min(stats.success_hops.min));
        }
    }
    set
}

/// Figures F–I: the hop-count distribution surface of one algorithm.
pub fn hop_surface(result: &ChurnRunResult, algorithm: RoutingAlgorithm) -> HopSurface {
    let mut surface = HopSurface::new();
    for step in &result.steps {
        if let Some(stats) = step.algo(algorithm) {
            surface.push(step.failed_fraction, stats.histogram.clone());
        }
    }
    surface
}

/// Extract the data of `figure` from the fixed-`nc` run and (when the figure
/// needs it) the variable-`nc` run.
pub fn extract_figure(
    figure: Figure,
    fixed: &ChurnRunResult,
    adaptive: Option<&ChurnRunResult>,
) -> FigureData {
    let adaptive_or_fixed = adaptive.unwrap_or(fixed);
    match figure {
        Figure::A => FigureData::Curves(failed_lookup_curves(fixed)),
        Figure::B => FigureData::Curves(mean_hop_curves(fixed)),
        Figure::C => FigureData::Curves(failed_lookup_curves(adaptive_or_fixed)),
        Figure::D => FigureData::Curves(hop_comparison_curves(fixed, adaptive_or_fixed)),
        Figure::E => FigureData::Curves(failed_hop_envelope(fixed, RoutingAlgorithm::Greedy)),
        Figure::F => FigureData::Surface(hop_surface(fixed, RoutingAlgorithm::Greedy)),
        Figure::G => FigureData::Surface(hop_surface(fixed, RoutingAlgorithm::NonGreedy)),
        Figure::H => FigureData::Surface(hop_surface(adaptive_or_fixed, RoutingAlgorithm::Greedy)),
        Figure::I => {
            FigureData::Surface(hop_surface(adaptive_or_fixed, RoutingAlgorithm::NonGreedy))
        }
    }
}

/// One curve figure (A–E) over several seeds: per x, the median and the
/// quartiles of each series over `per_seed`, one [`SeriesSet`] per seed.
pub fn quartile_table(title: &str, per_seed: &[SeriesSet]) -> Table {
    // Series name → x → one y per seed; the x key is exact to 10⁻⁶ %.
    let mut samples: BTreeMap<String, BTreeMap<i64, Vec<f64>>> = BTreeMap::new();
    for set in per_seed {
        for name in &set.to_rows().0[1..] {
            let at = samples.entry(name.clone()).or_default();
            for &(x, y) in &set.get(name).expect("a listed series").points {
                at.entry((x * 1e6).round() as i64).or_default().push(y);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ExperimentParams;
    use crate::runner::run_churn_experiment;

    fn result() -> ChurnRunResult {
        run_churn_experiment(&ExperimentParams::quick(100, 21).with_lookups_per_step(15))
    }

    #[test]
    fn figure_parsing_round_trips() {
        for figure in Figure::ALL {
            assert_eq!(Figure::parse(figure.label()), Some(figure));
            assert_eq!(Figure::parse(&figure.label().to_lowercase()), Some(figure));
            assert!(!figure.description().is_empty());
        }
        assert_eq!(Figure::parse("z"), None);
        assert_eq!(Figure::parse(""), None);
    }

    #[test]
    fn adaptive_requirement_matches_the_paper() {
        assert!(!Figure::A.needs_adaptive_run());
        assert!(Figure::C.needs_adaptive_run());
        assert!(Figure::D.needs_adaptive_run());
        assert!(Figure::H.needs_adaptive_run());
        assert!(!Figure::F.needs_adaptive_run());
    }

    #[test]
    fn curve_extraction_produces_three_algorithms() {
        let r = result();
        let failed = failed_lookup_curves(&r);
        assert_eq!(failed.to_rows().0, ["x", "G", "NG", "NGSA"]);
        for algo in RoutingAlgorithm::ALL {
            let series = failed.get(algo.label()).unwrap();
            assert_eq!(series.points.len(), r.steps.len());
            assert!(series.points.iter().all(|(_, y)| (0.0..=100.0).contains(y)));
        }
        let hops = mean_hop_curves(&r);
        assert_eq!(hops.to_rows().0, ["x", "G", "NG", "NGSA"]);
    }

    #[test]
    fn surfaces_cover_every_step() {
        let r = result();
        let surface = hop_surface(&r, RoutingAlgorithm::Greedy);
        assert_eq!(surface.rows().len(), r.steps.len());
        assert!(surface.max_hops() < 40);
    }

    #[test]
    fn envelope_orders_min_below_max() {
        let r = result();
        let env = failed_hop_envelope(&r, RoutingAlgorithm::Greedy);
        let max = env.get("max").unwrap();
        let min = env.get("min").unwrap();
        for (pmax, pmin) in max.points.iter().zip(&min.points) {
            assert!(pmax.1 >= pmin.1);
        }
    }

    #[test]
    fn extract_covers_every_figure_and_renders() {
        let r = result();
        for figure in Figure::ALL {
            let data = extract_figure(figure, &r, Some(&r));
            let table = data.to_table(&format!("Figure {figure}"));
            assert!(!table.is_empty(), "figure {figure} rendered an empty table");
            assert!(table.to_csv().lines().count() > 1);
            assert_eq!(
                matches!(data, FigureData::Surface(_)),
                figure.is_surface(),
                "figure {figure}"
            );
        }
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
    fn comparison_curves_have_two_labels() {
        let r = result();
        let cmp = hop_comparison_curves(&r, &r);
        assert_eq!(cmp.to_rows().0, ["x", "nc=4", "nc=variable"]);
    }
}
