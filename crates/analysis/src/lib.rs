//! # analysis — metric collection and reporting for the TreeP reproduction
//!
//! The paper's evaluation (Section IV) reports failed-lookup percentages,
//! hop-count averages and min/max envelopes, and hop-count distribution
//! surfaces as a function of the fraction of failed nodes. This crate holds
//! the small, dependency-free statistics toolbox used to compute and render
//! those quantities:
//!
//! * [`SummaryStats`] — mean / min / max / standard deviation / percentiles
//!   of a sample.
//! * [`Series`] — a named `(x, y)` series (one curve of Figures A–E).
//! * [`HopHistogram`] and [`HopSurface`] — the hop-count distributions and
//!   the 3-D surfaces of Figures F–I.
//! * [`Table`] — the one tabular report: rows of [`Cell`]s under
//!   [`Column`]s declared once per row type, rendered as an aligned text
//!   table, as CSV and as a BENCH JSON document (the only JSON writer of the
//!   workspace; [`validate_json`] is its checker).

#![warn(missing_docs, unreachable_pub)]
#![forbid(unsafe_code)]

mod csv;
mod histogram;
mod json;
mod series;
mod summary;
mod table;

pub use csv::write_document;
pub use histogram::{HopHistogram, HopSurface};
pub use json::{validate_json, JsonError};
pub use series::{Series, SeriesSet};
pub use summary::{ratio, SummaryStats};
pub use table::{Cell, Column, Table};
