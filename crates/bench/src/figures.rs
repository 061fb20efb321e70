//! One reproduction module per figure of the paper's evaluation (§V).
//!
//! Every figure is a function `run(ctx) -> FigureReport` that generates the
//! workload prescribed by the paper for that figure, runs the relevant
//! algorithm variants, and returns the measured series. The registry at the
//! bottom maps figure identifiers to these functions so the `figures` binary
//! can regenerate any subset.

use crate::report::{FigureReport, Series};
use crate::runner::Runner;
use crate::workload::{ExperimentContext, VenueKind};
use ikrq_core::VariantConfig;
use indoor_data::{ExperimentDefaults, ParameterSpace, WorkloadConfig};

/// The variants plotted in Figs. 4–9 and 17–19 (everything except ToE\P and
/// KoE*, which have dedicated figures).
fn main_variants() -> Vec<VariantConfig> {
    vec![
        VariantConfig::toe(),
        VariantConfig::toe_no_distance(),
        VariantConfig::toe_no_kbound(),
        VariantConfig::koe(),
        VariantConfig::koe_no_distance(),
        VariantConfig::koe_no_kbound(),
    ]
}

/// Measurement selector: which aggregate value a figure plots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Metric {
    TimeMs,
    MemoryMb,
    HomogeneousRate,
}

impl Metric {
    fn label(self) -> &'static str {
        match self {
            Metric::TimeMs => "ms",
            Metric::MemoryMb => "MB",
            Metric::HomogeneousRate => "homogeneous rate",
        }
    }

    fn pick(self, r: &crate::runner::AggregateResult) -> f64 {
        match self {
            Metric::TimeMs => r.avg_time_ms,
            Metric::MemoryMb => r.avg_memory_mb,
            Metric::HomogeneousRate => r.avg_homogeneous_rate,
        }
    }
}

/// Shared sweep driver: for every x-axis value, build the workload, generate
/// the instances, run all variants and collect the chosen metric.
#[allow(clippy::too_many_arguments)]
fn sweep<X: std::fmt::Display + Copy>(
    ctx: &ExperimentContext,
    id: &str,
    title: &str,
    x_label: &str,
    metric: Metric,
    venue_kind: VenueKind,
    xs: &[X],
    variants: &[VariantConfig],
    make_workload: impl Fn(X) -> WorkloadConfig,
) -> FigureReport {
    let mut report = FigureReport::new(id, title, x_label, metric.label());
    report.x_values = xs.iter().map(|x| x.to_string()).collect();
    let mut columns: Vec<Vec<Option<f64>>> = vec![Vec::new(); variants.len()];
    let venue = ctx.venue(venue_kind);
    let runner = Runner::new(ctx.runs_per_instance());
    for &x in xs {
        let workload = make_workload(x);
        let instances = venue.instances(&workload, ctx.instances_per_setting(), ctx.seed ^ 0x5eed);
        if instances.is_empty() {
            for column in &mut columns {
                column.push(None);
            }
            report.note(format!("no valid instances for {x_label} = {x}"));
            continue;
        }
        let results = runner.run_variants(&venue, &instances, variants);
        for (column, result) in columns.iter_mut().zip(&results) {
            column.push(Some(metric.pick(result)));
            if result.budget_exhausted {
                report.note(format!(
                    "{} hit its expansion budget at {x_label} = {x}",
                    result.label
                ));
            }
        }
    }
    for (variant, column) in variants.iter().zip(columns) {
        report.series.push(Series::new(variant.label(), column));
    }
    report.note(format!(
        "{} instances per setting, {} runs per instance (paper: 10 × 5)",
        ctx.instances_per_setting(),
        ctx.runs_per_instance()
    ));
    report
}

fn defaults() -> ExperimentDefaults {
    ExperimentDefaults::default()
}

fn real_defaults() -> ExperimentDefaults {
    ExperimentDefaults::real_data()
}

fn synthetic() -> VenueKind {
    VenueKind::Synthetic {
        floors: defaults().floors,
    }
}

/// Fig. 4: running time of all algorithms under default parameters.
pub fn fig04(ctx: &ExperimentContext) -> FigureReport {
    let mut variants = main_variants();
    variants.push(VariantConfig::koe_star());
    let mut report = sweep(
        ctx,
        "fig04",
        "Running time under default parameters",
        "setting",
        Metric::TimeMs,
        synthetic(),
        &["default"],
        &variants,
        |_| defaults().into(),
    );
    report.note("one column per algorithm of Table III (ToE\\P is reported in fig15)");
    report
}

/// Fig. 5: running time vs. k.
pub fn fig05(ctx: &ExperimentContext) -> FigureReport {
    let ks = ParameterSpace::default().k;
    sweep(
        ctx,
        "fig05",
        "Running time vs. k",
        "k",
        Metric::TimeMs,
        synthetic(),
        &ks,
        &main_variants(),
        |k| WorkloadConfig {
            k,
            ..defaults().into()
        },
    )
}

/// Fig. 6: running time vs. |QW|.
pub fn fig06(ctx: &ExperimentContext) -> FigureReport {
    let lens = ParameterSpace::default().qw_len;
    sweep(
        ctx,
        "fig06",
        "Running time vs. |QW|",
        "|QW|",
        Metric::TimeMs,
        synthetic(),
        &lens,
        &main_variants(),
        |qw_len| WorkloadConfig {
            qw_len,
            ..defaults().into()
        },
    )
}

/// Fig. 7: memory vs. |QW|.
pub fn fig07(ctx: &ExperimentContext) -> FigureReport {
    let lens = ParameterSpace::default().qw_len;
    sweep(
        ctx,
        "fig07",
        "Memory vs. |QW|",
        "|QW|",
        Metric::MemoryMb,
        synthetic(),
        &lens,
        &main_variants(),
        |qw_len| WorkloadConfig {
            qw_len,
            ..defaults().into()
        },
    )
}

/// Fig. 8: running time vs. η.
pub fn fig08(ctx: &ExperimentContext) -> FigureReport {
    let etas = vec![1.6, 1.8, 2.0];
    sweep(
        ctx,
        "fig08",
        "Running time vs. eta",
        "eta",
        Metric::TimeMs,
        synthetic(),
        &etas,
        &main_variants(),
        |eta| WorkloadConfig {
            eta,
            ..defaults().into()
        },
    )
}

/// Fig. 9: memory vs. η.
pub fn fig09(ctx: &ExperimentContext) -> FigureReport {
    let etas = vec![1.6, 1.8, 2.0];
    sweep(
        ctx,
        "fig09",
        "Memory vs. eta",
        "eta",
        Metric::MemoryMb,
        synthetic(),
        &etas,
        &main_variants(),
        |eta| WorkloadConfig {
            eta,
            ..defaults().into()
        },
    )
}

/// Fig. 10: running time vs. β (ToE and KoE only).
pub fn fig10(ctx: &ExperimentContext) -> FigureReport {
    let betas = ParameterSpace::default().beta;
    sweep(
        ctx,
        "fig10",
        "Running time vs. beta",
        "beta",
        Metric::TimeMs,
        synthetic(),
        &betas,
        &[VariantConfig::toe(), VariantConfig::koe()],
        |beta| WorkloadConfig {
            beta,
            ..defaults().into()
        },
    )
}

/// Fig. 11: running time vs. number of floors (ToE and KoE only).
pub fn fig11(ctx: &ExperimentContext) -> FigureReport {
    let floors = ParameterSpace::default().floors;
    let mut report = FigureReport::new(
        "fig11",
        "Running time vs. number of floors",
        "floors",
        Metric::TimeMs.label(),
    );
    report.x_values = floors.iter().map(|f| f.to_string()).collect();
    let variants = [VariantConfig::toe(), VariantConfig::koe()];
    let mut columns: Vec<Vec<Option<f64>>> = vec![Vec::new(); variants.len()];
    let runner = Runner::new(ctx.runs_per_instance());
    for &floor_count in &floors {
        let venue = ctx.venue(VenueKind::Synthetic {
            floors: floor_count,
        });
        let instances = venue.instances(
            &defaults().into(),
            ctx.instances_per_setting(),
            ctx.seed ^ 0xf100,
        );
        let results = runner.run_variants(&venue, &instances, &variants);
        for (column, result) in columns.iter_mut().zip(&results) {
            column.push(Some(result.avg_time_ms));
        }
    }
    for (variant, column) in variants.iter().zip(columns) {
        report.series.push(Series::new(variant.label(), column));
    }
    report.note(format!(
        "{} instances per setting, {} runs per instance",
        ctx.instances_per_setting(),
        ctx.runs_per_instance()
    ));
    report
}

/// Fig. 12: running time vs. δs2t with η fixed to 1.6 (ToE and KoE only).
pub fn fig12(ctx: &ExperimentContext) -> FigureReport {
    let s2ts = vec![1100.0, 1300.0, 1500.0, 1700.0, 1900.0];
    sweep(
        ctx,
        "fig12",
        "Running time vs. s2t distance",
        "s2t",
        Metric::TimeMs,
        synthetic(),
        &s2ts,
        &[VariantConfig::toe(), VariantConfig::koe()],
        |s2t| WorkloadConfig {
            s2t,
            eta: 1.6,
            ..defaults().into()
        },
    )
}

/// Fig. 13: running time of KoE vs. KoE* across η.
pub fn fig13(ctx: &ExperimentContext) -> FigureReport {
    let etas = vec![1.2, 1.4, 1.6, 1.8, 2.0];
    sweep(
        ctx,
        "fig13",
        "Running time of KoE vs. KoE*",
        "eta",
        Metric::TimeMs,
        synthetic(),
        &etas,
        &[VariantConfig::koe(), VariantConfig::koe_star()],
        |eta| WorkloadConfig {
            eta,
            ..defaults().into()
        },
    )
}

/// Fig. 14: memory of KoE vs. KoE* across η. KoE* keeps no precomputed
/// door paths here, so unlike in the paper it does not use more memory
/// than KoE.
pub fn fig14(ctx: &ExperimentContext) -> FigureReport {
    let etas = vec![1.2, 1.4, 1.6, 1.8, 2.0];
    sweep(
        ctx,
        "fig14",
        "Memory of KoE vs. KoE*",
        "eta",
        Metric::MemoryMb,
        synthetic(),
        &etas,
        &[VariantConfig::koe(), VariantConfig::koe_star()],
        |eta| WorkloadConfig {
            eta,
            ..defaults().into()
        },
    )
}

/// Fig. 15: running time of ToE vs. ToE\P across η.
pub fn fig15(ctx: &ExperimentContext) -> FigureReport {
    let etas = vec![1.4, 1.6, 1.8, 2.0];
    let mut report = sweep(
        ctx,
        "fig15",
        "Running time of ToE vs. ToE\\P",
        "eta",
        Metric::TimeMs,
        synthetic(),
        &etas,
        &[VariantConfig::toe(), VariantConfig::toe_no_prime()],
        |eta| WorkloadConfig {
            eta,
            ..defaults().into()
        },
    );
    report.note("ToE\\P runs under an expansion budget; budget-exhausted points are lower bounds");
    report
}

/// Fig. 16: homogeneous rate of ToE\P vs. k.
pub fn fig16(ctx: &ExperimentContext) -> FigureReport {
    let ks = vec![1usize, 3, 5, 7, 9, 11, 13, 15];
    sweep(
        ctx,
        "fig16",
        "Homogeneous rate of ToE\\P vs. k",
        "k",
        Metric::HomogeneousRate,
        synthetic(),
        &ks,
        &[VariantConfig::toe_no_prime()],
        |k| WorkloadConfig {
            k,
            ..defaults().into()
        },
    )
}

/// Fig. 17: running time vs. |QW| on the real venue.
pub fn fig17(ctx: &ExperimentContext) -> FigureReport {
    let lens = ParameterSpace::default().qw_len;
    sweep(
        ctx,
        "fig17",
        "Real data: running time vs. |QW|",
        "|QW|",
        Metric::TimeMs,
        VenueKind::Real,
        &lens,
        &main_variants(),
        |qw_len| WorkloadConfig {
            qw_len,
            ..real_defaults().into()
        },
    )
}

/// Fig. 18: memory vs. |QW| on the real venue.
pub fn fig18(ctx: &ExperimentContext) -> FigureReport {
    let lens = ParameterSpace::default().qw_len;
    sweep(
        ctx,
        "fig18",
        "Real data: memory vs. |QW|",
        "|QW|",
        Metric::MemoryMb,
        VenueKind::Real,
        &lens,
        &main_variants(),
        |qw_len| WorkloadConfig {
            qw_len,
            ..real_defaults().into()
        },
    )
}

/// Fig. 19: running time vs. η on the real venue.
pub fn fig19(ctx: &ExperimentContext) -> FigureReport {
    let etas = vec![1.2, 1.4, 1.6, 1.8, 2.0, 2.2];
    sweep(
        ctx,
        "fig19",
        "Real data: running time vs. eta",
        "eta",
        Metric::TimeMs,
        VenueKind::Real,
        &etas,
        &main_variants(),
        |eta| WorkloadConfig {
            eta,
            ..real_defaults().into()
        },
    )
}

/// Fig. 20: homogeneous rate of ToE\P vs. |QW| on the real venue.
pub fn fig20(ctx: &ExperimentContext) -> FigureReport {
    let lens = ParameterSpace::default().qw_len;
    sweep(
        ctx,
        "fig20",
        "Real data: homogeneous rate of ToE\\P vs. |QW|",
        "|QW|",
        Metric::HomogeneousRate,
        VenueKind::Real,
        &lens,
        &[VariantConfig::toe_no_prime()],
        |qw_len| WorkloadConfig {
            qw_len,
            ..real_defaults().into()
        },
    )
}

/// One registry row: figure identifier, paper reference, runner function.
pub type FigureEntry = (
    &'static str,
    &'static str,
    fn(&ExperimentContext) -> FigureReport,
);

/// The figure registry: identifier, paper reference and runner function.
pub fn registry() -> Vec<FigureEntry> {
    vec![
        (
            "fig04",
            "Fig. 4: default parameters",
            fig04 as fn(&ExperimentContext) -> FigureReport,
        ),
        ("fig05", "Fig. 5: running time vs. k", fig05),
        ("fig06", "Fig. 6: running time vs. |QW|", fig06),
        ("fig07", "Fig. 7: memory vs. |QW|", fig07),
        ("fig08", "Fig. 8: running time vs. eta", fig08),
        ("fig09", "Fig. 9: memory vs. eta", fig09),
        ("fig10", "Fig. 10: running time vs. beta", fig10),
        ("fig11", "Fig. 11: running time vs. floors", fig11),
        ("fig12", "Fig. 12: running time vs. s2t", fig12),
        ("fig13", "Fig. 13: KoE vs. KoE* time", fig13),
        ("fig14", "Fig. 14: KoE vs. KoE* memory", fig14),
        ("fig15", "Fig. 15: ToE vs. ToE\\P time", fig15),
        ("fig16", "Fig. 16: ToE\\P homogeneous rate vs. k", fig16),
        ("fig17", "Fig. 17: real data, time vs. |QW|", fig17),
        ("fig18", "Fig. 18: real data, memory vs. |QW|", fig18),
        ("fig19", "Fig. 19: real data, time vs. eta", fig19),
        (
            "fig20",
            "Fig. 20: real data, ToE\\P homogeneous rate",
            fig20,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_paper_figure() {
        let ids: Vec<_> = registry().iter().map(|(id, _, _)| *id).collect();
        for expected in (4..=20).map(|i| format!("fig{i:02}")) {
            assert!(ids.contains(&expected.as_str()), "missing {expected}");
        }
        assert_eq!(ids.len(), 17);
    }

    /// The expensive coverage sweep: actually run every registered figure.
    /// Even at the shared context's reduced scale this builds the 5-floor
    /// synthetic mall and the real-venue simulation and runs every variant
    /// (including the budget-bounded ToE\P figures) — expect on the order
    /// of an hour even in release, so it only runs on request:
    /// `cargo test --release -p ikrq-bench --lib -- --ignored`.
    /// For a quick smoke of individual figures use the binary instead:
    /// `cargo run --release -p ikrq-bench --bin figures -- --quick --fig fig05`.
    #[test]
    #[ignore = "runs every figure end-to-end (~1 h release); use the figures binary for smoke runs"]
    fn every_registered_figure_produces_a_populated_report() {
        let ctx = crate::test_support::shared_context();
        for (id, description, run) in registry() {
            let report = run(ctx);
            assert_eq!(report.id, id, "{description}");
            assert!(!report.series.is_empty(), "{id} has no series");
            assert!(!report.x_values.is_empty(), "{id} has no x axis");
            for series in &report.series {
                assert_eq!(
                    series.values.len(),
                    report.x_values.len(),
                    "{id}/{} is ragged",
                    series.name
                );
            }
        }
    }
}
