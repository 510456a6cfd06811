//! `paper-figures`: the researchers' job — regenerate Figs. 3 and 9 and the
//! two fault sweeps through `rtmac_bench::figures` on the default Runner.
//!
//! N is 8–20 here, so the per-interval fixed cost of the slot-walking
//! engines dominates. The untraced run times the figure calls (the
//! throughput) and steps every sweep network once on one thread, timing
//! each `Network::step` (the step latencies). The traced run repeats the
//! sweep on one thread with a span per `Scenario::network` and per
//! `Network::run`, grouped by the engine the policy drives.

use std::hint::black_box;
use std::time::Duration;

use rtmac::scenario::{self, FaultSpec, Scenario};
use rtmac::{Network, RunReport, Runner};
use rtmac_bench::figures::{
    self, Contender, BURST_BAD_FRACTION, BURST_BAD_RATES, BURST_LENGTHS, FAULT_EPSILONS,
};
use rtmac_bench::table::SeriesTable;

use crate::clock::Stopwatch;
use crate::report::Outcome;
use crate::stats::{micros, Samples};
use crate::{time_setup, time_setups, GOLDEN_SEED};

/// Set-ups timed per measurement cycle.
const SETUPS_PER_CYCLE: usize = 20;

/// The engine family a run exercises (the `mac.*_s` spans).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EngineFamily {
    Fcsma,
    DpTimeline,
    Centralized,
    Faulty,
}

impl EngineFamily {
    const ALL: [EngineFamily; 4] = [
        EngineFamily::Fcsma,
        EngineFamily::DpTimeline,
        EngineFamily::Centralized,
        EngineFamily::Faulty,
    ];

    fn metric_name(self) -> &'static str {
        match self {
            EngineFamily::Fcsma => "mac.fcsma_s",
            EngineFamily::DpTimeline => "mac.dp_timeline_s",
            EngineFamily::Centralized => "mac.centralized_s",
            EngineFamily::Faulty => "mac.faulty_s",
        }
    }

    fn of_contender(contender: Contender) -> Self {
        match contender {
            Contender::DbDp => EngineFamily::DpTimeline,
            Contender::Ldf => EngineFamily::Centralized,
            Contender::Fcsma => EngineFamily::Fcsma,
        }
    }
}

/// One of the four regenerated figures.
#[derive(Debug, Clone, Copy)]
enum Figure {
    Fig3,
    Fig9,
    Fault,
    Burst,
}

/// One table row: the runs behind it and how their reports become cells.
struct Row {
    x: f64,
    runs: Vec<(Scenario, EngineFamily)>,
    cells: fn(&[RunReport]) -> Vec<f64>,
}

fn deficiencies(reports: &[RunReport]) -> Vec<f64> {
    reports.iter().map(|r| r.final_total_deficiency).collect()
}

fn fault_cells(reports: &[RunReport]) -> Vec<f64> {
    reports
        .iter()
        .flat_map(|report| {
            let stats = report.fault.expect("degraded engine reports fault stats");
            [
                report.per_link_throughput.iter().sum::<f64>(),
                stats.mean_time_to_reconverge().unwrap_or(0.0),
                stats.divergences as f64,
                stats.fallbacks as f64,
            ]
        })
        .collect()
}

fn burst_cells(reports: &[RunReport]) -> Vec<f64> {
    reports
        .iter()
        .flat_map(|report| {
            let stats = report.fault.expect("degraded engine reports fault stats");
            let offered = 8.0 * 0.7;
            let miss = 1.0 - report.per_link_throughput.iter().sum::<f64>() / offered;
            [
                stats.mean_time_to_reconverge().unwrap_or(0.0),
                miss.max(0.0),
            ]
        })
        .collect()
}

impl Figure {
    const ALL: [Figure; 4] = [Figure::Fig3, Figure::Fig9, Figure::Fault, Figure::Burst];

    fn fig_name(self) -> &'static str {
        match self {
            Figure::Fig3 => "fig3",
            Figure::Fig9 => "fig9",
            Figure::Fault => "fig_fault",
            Figure::Burst => "fig_fault_burst",
        }
    }

    /// The paper's horizon for the figure (and the golden's).
    fn horizon(self) -> usize {
        match self {
            Figure::Fig9 => 20_000,
            Figure::Fig3 | Figure::Fault | Figure::Burst => 5_000,
        }
    }

    /// The checked-in output at seed 2018.
    fn golden_csv(self) -> &'static str {
        match self {
            Figure::Fig3 => include_str!("../../bench_results/fig3.csv"),
            Figure::Fig9 => include_str!("../../bench_results/fig9.csv"),
            Figure::Fault => include_str!("../../bench_results/fig_fault.csv"),
            Figure::Burst => include_str!("../../bench_results/fig_fault_burst.csv"),
        }
    }

    /// The program's own figure call, on the default Runner.
    fn regenerate(self, n: usize, seed: u64) -> SeriesTable {
        match self {
            Figure::Fig3 => figures::fig3(n, seed),
            Figure::Fig9 => figures::fig9(n, seed),
            Figure::Fault => figures::fig_fault(n, seed),
            Figure::Burst => figures::fig_fault_burst(n, seed),
        }
    }

    /// The same sweep as [`Figure::regenerate`], spelled out row by row so it can
    /// run on one thread with spans. Mirrors `rtmac_bench::figures`.
    fn sweep_rows(self, n: usize, seed: u64) -> Vec<Row> {
        let contenders = |sc: Scenario| {
            Contender::ALL
                .iter()
                .map(|&c| {
                    (
                        sc.clone().with_policy(c.spec()),
                        EngineFamily::of_contender(c),
                    )
                })
                .collect()
        };
        match self {
            Figure::Fig3 | Figure::Fig9 => {
                let sweep = match self {
                    Figure::Fig3 => scenario::fig3(n, seed),
                    _ => scenario::fig9(n, seed),
                };
                sweep
                    .points
                    .iter()
                    .zip(sweep.scenarios())
                    .map(|(&x, sc)| Row {
                        x,
                        runs: contenders(sc),
                        cells: deficiencies,
                    })
                    .collect()
            }
            Figure::Fault => {
                let crash_at = (n as u64) / 4;
                let down = ((n as u64) / 20).max(1);
                FAULT_EPSILONS
                    .iter()
                    .map(|&eps| Row {
                        x: eps,
                        runs: vec![(
                            scenario::video(8, 0.55, 0.9, seed)
                                .with_intervals(n)
                                .with_fault(FaultSpec::sensing(eps).with_churn(3, crash_at, down)),
                            EngineFamily::Faulty,
                        )],
                        cells: fault_cells,
                    })
                    .collect()
            }
            Figure::Burst => BURST_LENGTHS
                .iter()
                .map(|&len| {
                    let p_exit = 1.0 / len;
                    let p_enter = p_exit * BURST_BAD_FRACTION / (1.0 - BURST_BAD_FRACTION);
                    let runs = BURST_BAD_RATES
                        .iter()
                        .flat_map(|&bad| {
                            [false, true].map(|adaptive| {
                                let mut spec =
                                    FaultSpec::sensing(0.0).with_burst(p_enter, p_exit, bad, bad);
                                if adaptive {
                                    spec = spec.with_adaptive_recovery(2, 32);
                                }
                                let sc = scenario::control(8, 0.7, 0.95, seed)
                                    .with_intervals(n)
                                    .with_fault(spec);
                                (sc, EngineFamily::Faulty)
                            })
                        })
                        .collect();
                    Row {
                        x: len,
                        runs,
                        cells: burst_cells,
                    }
                })
                .collect(),
        }
    }
}

/// The CSV data cells (header excluded) of rows `(x, values)`, formatted
/// as `SeriesTable::to_csv` formats them.
fn data_csv(rows: &[(f64, Vec<f64>)]) -> Vec<Vec<String>> {
    rows.iter()
        .map(|(x, values)| {
            std::iter::once(x.to_string())
                .chain(values.iter().map(f64::to_string))
                .collect()
        })
        .collect()
}

/// The data cells of a CSV text (header line dropped).
fn parse_csv(text: &str) -> Vec<Vec<String>> {
    text.lines()
        .skip(1)
        .map(|l| l.split(',').map(str::to_string).collect())
        .collect()
}

/// The first cell where `got` differs from `want`, if any.
fn first_difference(got: &[Vec<String>], want: &[Vec<String>]) -> Option<String> {
    if got.len() != want.len() {
        return Some(format!("{} rows, expected {}", got.len(), want.len()));
    }
    for (r, (g, w)) in got.iter().zip(want).enumerate() {
        if g.len() != w.len() {
            return Some(format!(
                "row {r} has {} cells, expected {}",
                g.len(),
                w.len()
            ));
        }
        if let Some(c) = g.iter().zip(w).position(|(a, b)| a != b) {
            return Some(format!("row {r} cell {c} is {}, expected {}", g[c], w[c]));
        }
    }
    None
}

/// Total `(link-intervals, intervals)` one pass of every figure simulates.
fn pass_work(rows: &[Vec<Row>]) -> (f64, f64) {
    rows.iter()
        .flatten()
        .flat_map(|row| &row.runs)
        .fold((0.0, 0.0), |(li, i), (sc, _)| {
            (
                li + (sc.links * sc.intervals) as f64,
                i + sc.intervals as f64,
            )
        })
}

/// Builds every network of one pass (the workload's set-up).
fn build_all(rows: &[Vec<Row>]) -> Result<(), String> {
    for (sc, _) in rows.iter().flatten().flat_map(|row| &row.runs) {
        drop(black_box(sc.network().map_err(|e| e.to_string())?));
    }
    Ok(())
}

/// Steps every run of `row` on this thread, appending each
/// `Network::step` latency to `steps`; returns the row's data cells.
fn one_thread_row(row: &Row, steps: &mut Vec<f64>) -> Result<Vec<String>, String> {
    let mut reports = Vec::with_capacity(row.runs.len());
    for (sc, _) in &row.runs {
        let mut net: Network = sc.network().map_err(|e| e.to_string())?;
        for _ in 0..sc.intervals {
            let t = Stopwatch::start();
            black_box(net.step());
            steps.push(micros(t.elapsed()));
        }
        reports.push(net.report());
    }
    let cells = (row.cells)(&reports);
    Ok(data_csv(&[(row.x, cells)]).remove(0))
}

/// The checked-in goldens' data cells, one table per figure.
fn golden_cells() -> Vec<Vec<Vec<String>>> {
    Figure::ALL
        .iter()
        .map(|fig| parse_csv(fig.golden_csv()))
        .collect()
}

/// The references the figure calls are compared with, given a one-thread
/// recomputation of the whole sweep: at seed 2018 the goldens (and the
/// recomputation is checked against them, one operation per figure),
/// otherwise the recomputation itself.
fn adopt_reference(
    seed: u64,
    one_thread: Vec<Vec<Vec<String>>>,
    out: &mut Outcome,
) -> Vec<Vec<Vec<String>>> {
    if seed != GOLDEN_SEED {
        return one_thread;
    }
    let golden = golden_cells();
    for ((fig, cells), want) in Figure::ALL.iter().zip(&one_thread).zip(&golden) {
        let diff = first_difference(cells, want);
        out.record_op(diff.is_none(), || {
            format!(
                "{}: one-thread recomputation vs golden: {}",
                fig.fig_name(),
                diff.unwrap_or_default()
            )
        });
    }
    golden
}

fn check_call(out: &mut Outcome, fig: Figure, table: &SeriesTable, want: &[Vec<String>]) {
    let diff = first_difference(&parse_csv(&table.to_csv()), want);
    out.record_op(diff.is_none(), || {
        format!("{}: {}", fig.fig_name(), diff.unwrap_or_default())
    });
}

/// Steps the middle row of every figure on this thread (≈10⁵ steps),
/// checks its cells against `want`, and returns the median step in µs.
/// `steps` is scratch space, reused so memory stays flat.
fn sample_middle_rows(
    rows: &[Vec<Row>],
    want: &[Vec<Vec<String>>],
    steps: &mut Vec<f64>,
    out: &mut Outcome,
) -> Result<f64, String> {
    steps.clear();
    for ((fig, fig_rows), want) in Figure::ALL.iter().zip(rows).zip(want) {
        let mid = fig_rows.len() / 2;
        let cells = one_thread_row(&fig_rows[mid], steps)?;
        let diff = first_difference(&[cells], &want[mid..=mid]);
        out.record_op(diff.is_none(), || {
            format!(
                "{} one-thread row {mid}: {}",
                fig.fig_name(),
                diff.unwrap_or_default()
            )
        });
    }
    let sampled = Samples::new(std::mem::take(steps));
    let p50 = sampled.median()?;
    *steps = sampled.into_vec();
    Ok(p50)
}

/// The untraced run.
///
/// # Errors
///
/// Fails when a scenario does not build.
pub fn measure(seed: u64, seconds: Duration) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let rows: Vec<Vec<Row>> = Figure::ALL
        .iter()
        .map(|f| f.sweep_rows(f.horizon(), seed))
        .collect();
    let (link_intervals, intervals) = pass_work(&rows);
    let workers = Runner::default().workers() as f64;
    let mut steps = Vec::new();
    let want = if seed == GOLDEN_SEED {
        golden_cells()
    } else {
        let mut recomputed = Vec::new();
        for fig_rows in &rows {
            let mut table = Vec::new();
            for row in fig_rows {
                steps.clear();
                table.push(one_thread_row(row, &mut steps)?);
            }
            recomputed.push(table);
        }
        recomputed
    };

    // Cycles of set-ups, a parallel pass of the figure calls between two
    // one-thread samples, so each measure is sampled all through the run.
    // A pass gives the throughput and the mean interval (wall time × workers
    // ÷ intervals); the one-thread samples give the median step.
    let (mut setups, mut passes, mut means) = (Vec::new(), Vec::new(), Vec::new());
    let mut p50s = Vec::new();
    let started = Stopwatch::start();
    loop {
        for _ in 0..SETUPS_PER_CYCLE {
            setups.push(time_setup(|| build_all(&rows))?);
        }
        p50s.push(sample_middle_rows(&rows, &want, &mut steps, &mut out)?);

        let pass = Stopwatch::start();
        for (fig, want) in Figure::ALL.iter().zip(&want) {
            check_call(&mut out, *fig, &fig.regenerate(fig.horizon(), seed), want);
        }
        let wall = pass.elapsed().as_secs_f64();
        passes.push(link_intervals / wall);
        means.push(wall * 1e6 * workers / intervals);

        p50s.push(sample_middle_rows(&rows, &want, &mut steps, &mut out)?);
        if started.elapsed() >= seconds {
            break;
        }
    }

    eprintln!(
        "paper-figures: {} cycles of a parallel pass on {} Runner workers",
        passes.len(),
        workers,
    );
    out.record_metric(
        "link_intervals_per_s",
        Samples::new(passes).median()?,
        "1/s",
    );
    out.record_metric("step_p50_us", Samples::new(p50s).median()?, "us");
    out.record_metric("round_mean_us", Samples::new(means).median()?, "us");
    out.record_metric("setup_s", Samples::new(setups).median()?, "s");
    Ok(out)
}

/// The traced run: one pass of the sweep on one thread with spans, each
/// row also run without them, then the parallel figure calls. It does a
/// fixed amount of work, whatever `--seconds` says.
///
/// # Errors
///
/// As [`measure`].
pub fn measure_traced(seed: u64, _seconds: Duration) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let rows: Vec<Vec<Row>> = Figure::ALL
        .iter()
        .map(|f| f.sweep_rows(f.horizon(), seed))
        .collect();

    // Spans: one per Scenario::network and per Network::run. Each row is
    // then run again without spans, interleaved so drift cancels in the
    // tracing overhead.
    let mut build_spans = Vec::new();
    let mut engine_s = [0.0f64; 4];
    let (mut job_s, mut plain_s) = (0.0, 0.0);
    let mut traced_cells = Vec::new();
    for fig_rows in &rows {
        let mut table = Vec::new();
        for row in fig_rows {
            let job = Stopwatch::start();
            let mut reports = Vec::new();
            for (sc, engine) in &row.runs {
                let t = Stopwatch::start();
                let mut net = sc.network().map_err(|e| e.to_string())?;
                build_spans.push(t.elapsed().as_secs_f64());
                let t = Stopwatch::start();
                reports.push(net.run(sc.intervals));
                engine_s[*engine as usize] += t.elapsed().as_secs_f64();
            }
            table.push((row.x, (row.cells)(&reports)));
            job_s += job.elapsed().as_secs_f64();

            let plain = Stopwatch::start();
            for (sc, _) in &row.runs {
                black_box(sc.run().map_err(|e| e.to_string())?);
            }
            plain_s += plain.elapsed().as_secs_f64();
        }
        traced_cells.push(data_csv(&table));
    }

    let want = adopt_reference(seed, traced_cells, &mut out);
    let runner = Runner::default();
    let parallel_started = Stopwatch::start();
    for (fig, want) in Figure::ALL.iter().zip(&want) {
        check_call(&mut out, *fig, &fig.regenerate(fig.horizon(), seed), want);
    }
    let parallel_wall = parallel_started.elapsed();
    let builds = time_setups(|| build_all(&rows))?;

    for engine in EngineFamily::ALL {
        out.record_layer(engine.metric_name(), engine_s[engine as usize]);
    }
    out.record_layer(
        "runner.efficiency",
        job_s / (runner.workers() as f64 * parallel_wall.as_secs_f64()),
    );
    out.record_layer("scenario.build_ms", builds.median()? * 1e3);
    out.record_layer(
        "scenario.first_build_ms",
        build_spans.first().copied().unwrap_or(0.0) * 1e3,
    );
    out.record_layer("trace.overhead_pct", (job_s / plain_s - 1.0) * 100.0);
    eprintln!(
        "paper-figures traced: {} networks, {:.3} s of jobs on one thread, {:.3} s parallel on {} workers",
        build_spans.len(),
        job_s,
        parallel_wall.as_secs_f64(),
        runner.workers()
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_mirror_the_figure_functions() {
        // A short horizon keeps this fast; the benchmark checks the full
        // horizons against the goldens.
        for fig in Figure::ALL {
            let mut table = Vec::new();
            for row in fig.sweep_rows(80, 5) {
                let reports: Vec<RunReport> =
                    row.runs.iter().map(|(sc, _)| sc.run().unwrap()).collect();
                table.push((row.x, (row.cells)(&reports)));
            }
            let program = fig.regenerate(80, 5);
            assert_eq!(
                first_difference(&data_csv(&table), &parse_csv(&program.to_csv())),
                None,
                "{}",
                fig.fig_name()
            );
        }
    }

    #[test]
    fn differences_name_the_cell() {
        let a = parse_csv("x,y\n1,2\n3,4\n");
        let b = parse_csv("x,y\n1,2\n3,5\n");
        assert_eq!(first_difference(&a, &a), None);
        assert_eq!(
            first_difference(&a, &b).unwrap(),
            "row 1 cell 1 is 4, expected 5"
        );
        assert!(first_difference(&a[..1], &b).is_some());
    }

    #[test]
    fn goldens_have_the_figure_shapes() {
        let rows = [7, 9, 5, 4];
        for (fig, n) in Figure::ALL.iter().zip(rows) {
            assert_eq!(parse_csv(fig.golden_csv()).len(), n, "{}", fig.fig_name());
            assert_eq!(
                fig.sweep_rows(fig.horizon(), GOLDEN_SEED).len(),
                n,
                "{}",
                fig.fig_name()
            );
        }
    }
}
