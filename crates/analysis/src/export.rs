//! Plot-script export: turning a [`FigureData`] into a self-contained gnuplot script.
//!
//! The `reproduce` binary writes every figure as CSV; this module additionally emits a
//! gnuplot script that plots those CSV rows with the axes the paper uses (log-log for the
//! degree distributions, linear or semi-log for the hits-versus-τ curves), so a figure can
//! be regenerated visually with nothing but `gnuplot <id>.gp`. The emitted script embeds
//! the data inline (gnuplot `$data` heredoc blocks), so it does not depend on the CSV file
//! staying next to it.

use crate::series::FigureData;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Axis scaling of an exported plot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AxisScale {
    /// Both axes linear.
    Linear,
    /// Logarithmic y axis, linear x axis (the paper's NF/RW hit curves for `m > 1`).
    SemiLogY,
    /// Both axes logarithmic (the paper's degree distributions).
    LogLog,
}

impl AxisScale {
    fn gnuplot_directives(&self) -> &'static str {
        match self {
            AxisScale::Linear => "unset logscale",
            AxisScale::SemiLogY => "unset logscale\nset logscale y",
            AxisScale::LogLog => "set logscale xy",
        }
    }
}

/// Renders `figure` as a self-contained gnuplot script.
///
/// Each series becomes one inline data block and one `plot` entry with error bars taken
/// from the series' `y_error` values.
///
/// # Example
///
/// ```
/// use sfo_analysis::{to_gnuplot, AxisScale};
/// use sfo_analysis::{DataPoint, DataSeries, FigureData};
///
/// let mut figure = FigureData::new("fig1a", "P(k) for PA", "k", "P(k)");
/// let mut series = DataSeries::new("m=1");
/// series.push(DataPoint::single(1.0, 0.5));
/// series.push(DataPoint::single(2.0, 0.125));
/// figure.push_series(series);
/// let script = to_gnuplot(&figure, AxisScale::LogLog);
/// assert!(script.contains("set logscale xy"));
/// assert!(script.contains("$data0"));
/// ```
pub fn to_gnuplot(figure: &FigureData, scale: AxisScale) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# {} — generated by sfo-analysis::export", figure.id);
    let _ = writeln!(out, "set title {:?}", figure.title);
    let _ = writeln!(out, "set xlabel {:?}", figure.x_label);
    let _ = writeln!(out, "set ylabel {:?}", figure.y_label);
    let _ = writeln!(out, "set key outside right");
    let _ = writeln!(out, "set grid");
    let _ = writeln!(out, "{}", scale.gnuplot_directives());
    out.push('\n');

    for (index, series) in figure.series.iter().enumerate() {
        let _ = writeln!(out, "$data{index} << EOD");
        for point in &series.points {
            let _ = writeln!(out, "{} {} {}", point.x, point.y, point.y_error);
        }
        let _ = writeln!(out, "EOD");
    }
    out.push('\n');

    if figure.series.is_empty() {
        let _ = writeln!(out, "# figure contains no series");
        return out;
    }
    let entries: Vec<String> = figure
        .series
        .iter()
        .enumerate()
        .map(|(index, series)| {
            format!(
                "$data{index} using 1:2:3 with yerrorlines title {:?}",
                series.label
            )
        })
        .collect();
    let _ = writeln!(out, "plot \\\n    {}", entries.join(", \\\n    "));
    out
}

/// Suggests an axis scaling for a figure id, following the paper's plotting conventions:
/// degree distributions (`fig1`-`fig4`) are log-log, hit curves for well-connected
/// topologies are semi-log, everything else linear.
pub fn suggested_scale(figure_id: &str) -> AxisScale {
    // Hit curves first: "fig10"-"fig12" would otherwise match the "fig1*" degree figures.
    if figure_id.starts_with("fig9")
        || figure_id.starts_with("fig10")
        || figure_id.starts_with("fig11")
        || figure_id.starts_with("fig12")
    {
        AxisScale::SemiLogY
    } else if figure_id == "fig1c" || figure_id == "fig4g" {
        AxisScale::Linear
    } else if figure_id.starts_with("fig1")
        || figure_id.starts_with("fig2")
        || figure_id.starts_with("fig3")
        || figure_id.starts_with("fig4")
    {
        AxisScale::LogLog
    } else {
        AxisScale::Linear
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DataPoint, DataSeries};

    fn sample_figure() -> FigureData {
        let mut figure = FigureData::new("fig9", "NF hits", "tau", "hits");
        let mut a = DataSeries::new("k_c=10");
        a.push(DataPoint::single(2.0, 10.0));
        a.push(DataPoint::single(4.0, 40.0));
        let mut b = DataSeries::new("no k_c");
        b.push(DataPoint::single(2.0, 8.0));
        b.push(DataPoint::single(4.0, 25.0));
        figure.push_series(a);
        figure.push_series(b);
        figure
    }

    #[test]
    fn script_contains_labels_data_blocks_and_plot_lines() {
        let script = to_gnuplot(&sample_figure(), AxisScale::SemiLogY);
        assert!(script.contains("set title \"NF hits\""));
        assert!(script.contains("set xlabel \"tau\""));
        assert!(script.contains("set ylabel \"hits\""));
        assert!(script.contains("set logscale y"));
        assert!(script.contains("$data0 << EOD"));
        assert!(script.contains("$data1 << EOD"));
        assert!(script.contains("2 10 0"));
        assert!(script.contains("4 25 0"));
        assert!(script.contains("title \"k_c=10\""));
        assert!(script.contains("title \"no k_c\""));
        assert!(script.trim_end().ends_with("title \"no k_c\""));
    }

    #[test]
    fn axis_scales_emit_the_right_directives() {
        assert!(to_gnuplot(&sample_figure(), AxisScale::LogLog).contains("set logscale xy"));
        let linear = to_gnuplot(&sample_figure(), AxisScale::Linear);
        assert!(linear.contains("unset logscale"));
        assert!(!linear.contains("\nset logscale"));
    }

    #[test]
    fn empty_figures_produce_a_comment_instead_of_a_plot_command() {
        let figure = FigureData::new("empty", "empty", "x", "y");
        let script = to_gnuplot(&figure, AxisScale::Linear);
        assert!(script.contains("# figure contains no series"));
        assert!(!script.contains("\nplot"));
    }

    #[test]
    fn suggested_scales_follow_the_paper_conventions() {
        assert_eq!(suggested_scale("fig1a"), AxisScale::LogLog);
        assert_eq!(suggested_scale("fig2"), AxisScale::LogLog);
        assert_eq!(suggested_scale("fig4"), AxisScale::LogLog);
        assert_eq!(suggested_scale("fig1c"), AxisScale::Linear);
        assert_eq!(suggested_scale("fig4g"), AxisScale::Linear);
        assert_eq!(suggested_scale("fig9"), AxisScale::SemiLogY);
        assert_eq!(suggested_scale("fig12"), AxisScale::SemiLogY);
        assert_eq!(suggested_scale("fig6"), AxisScale::Linear);
        assert_eq!(suggested_scale("resilience"), AxisScale::Linear);
    }
}
