//! # sfo-analysis
//!
//! Statistics used to turn raw topology and search measurements into the paper's figures
//! and tables:
//!
//! * `histogram` — logarithmically binned empirical distributions (the degree
//!   distributions of Figs. 1-4 are log-binned).
//! * `powerlaw_fit` — estimation of the degree-distribution exponent `γ`, both by
//!   least-squares regression on the log-log distribution (what the paper plots in
//!   Figs. 1(c) and 4(g)) and by discrete maximum likelihood.
//! * `summary` — mean / standard deviation / standard error across realizations; every
//!   data point in the paper averages 10 network realizations.
//! * `stats` — bootstrap confidence intervals, Kolmogorov-Smirnov goodness of fit, and
//!   correlation, for quantifying the "quite large error bars" the paper mentions.
//! * `kmin` — Clauset-style selection of the power-law fit window lower bound.
//! * `export` — self-contained gnuplot scripts for any figure, with the paper's axis
//!   conventions.
//! * `series` — labelled data series, figures as collections of series, and CSV/plain
//!   text rendering used by the `reproduce` binary.
//! * `table` — a small fixed-width text table renderer for Table I / Table II style
//!   output.
//!
//! # Example
//!
//! ```
//! use sfo_analysis::fit_exponent_from_counts;
//!
//! // A degree histogram with counts[k] ~ k^-3 yields the exponent back.
//! let mut counts = vec![0usize; 513];
//! for j in 0..10 {
//!     counts[1 << j] = 1 << (3 * (9 - j));
//! }
//! let fit = fit_exponent_from_counts(&counts, 1, 512).unwrap();
//! assert!((fit.gamma - 3.0).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
mod histogram;
mod kmin;
mod powerlaw_fit;
mod series;
mod stats;
mod summary;
mod table;

pub use export::{suggested_scale, to_gnuplot, AxisScale};
pub use histogram::{log_binned_distribution, LogBin};
pub use kmin::{select_k_min, KminSelection};
pub use powerlaw_fit::{fit_exponent_from_counts, ExponentFit};
pub use series::{DataPoint, DataSeries, FigureData};
pub use stats::{bootstrap_mean_ci, pearson_correlation, ConfidenceInterval};
pub use summary::Summary;
pub use table::TextTable;
