//! # rtmac-bench
//!
//! The benchmark harness that regenerates every figure of the paper's
//! evaluation (Section VI) plus the ablations called out in DESIGN.md.
//!
//! * [`figures`] — one parameterized runner per paper figure (Figs. 3–10),
//!   each returning a [`table::SeriesTable`] with the same series the paper
//!   plots. The `fig3`..`fig10` binaries print them and write CSVs under
//!   `bench_results/`.
//! * [`table`] — tiny text/CSV table rendering.
//!
//! Run a full reproduction with
//! `cargo run --release -p rtmac-bench --bin all_figures`.

pub mod figures;
pub mod table;

/// Maps `f` over `items` on the default [`rtmac::Runner`] worker pool (one
/// worker per CPU, shared work queue). The figure sweeps use it to run
/// independent simulation points concurrently — results come back in input
/// order, so output is identical to the sequential run regardless of the
/// worker count.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    rtmac::Runner::default().map(items, f)
}

/// Parses `--intervals N` and `--quick` from a binary's argument list,
/// returning the interval count to simulate (defaults to `full`; `--quick`
/// selects `full / 20`, handy for smoke runs).
#[must_use]
pub fn intervals_from_args(args: &[String], full: usize) -> usize {
    let mut intervals = full;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => intervals = (full / 20).max(50),
            "--intervals" => {
                if let Some(v) = it.next() {
                    if let Ok(n) = v.parse::<usize>() {
                        intervals = n;
                    }
                }
            }
            _ => {}
        }
    }
    intervals
}

/// Runs `metric` once per seed (in parallel) and returns the sample mean
/// and standard deviation — replication bands for any figure point.
pub fn replicate<F>(seeds: std::ops::Range<u64>, metric: F) -> (f64, f64)
where
    F: Fn(u64) -> f64 + Sync,
{
    let values = parallel_map(seeds.collect::<Vec<u64>>(), metric);
    let mut stats = rtmac_model::metrics::RunningStats::new();
    for v in values {
        stats.push(v);
    }
    (stats.mean(), stats.std_dev())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| (*x).to_string()).collect()
    }

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map((0..16).collect(), |x: i32| x * x);
        assert_eq!(out, (0..16).map(|x| x * x).collect::<Vec<i32>>());
    }

    #[test]
    fn replicate_reports_mean_and_spread() {
        let (mean, std) = replicate(0..8, |seed| seed as f64);
        assert!((mean - 3.5).abs() < 1e-12);
        assert!(std > 2.0 && std < 3.0);
        // Deterministic metric: zero spread.
        let (m, s) = replicate(0..4, |_| 7.0);
        assert_eq!((m, s), (7.0, 0.0));
    }

    #[test]
    fn replicated_simulation_point_is_stable() {
        // The Fig. 9 point (λ = 0.6, feasible): deficiency ~0 across seeds.
        let (mean, std) = replicate(0..4, |seed| {
            crate::figures::run_control(4, 0.6, 0.7, 0.9, rtmac::PolicySpec::Ldf, 200, seed)
                .final_total_deficiency
        });
        assert!(mean < 0.1, "mean {mean}");
        assert!(std < 0.1, "std {std}");
    }

    #[test]
    fn default_is_full() {
        assert_eq!(intervals_from_args(&args(&[]), 5000), 5000);
    }

    #[test]
    fn quick_divides_by_twenty() {
        assert_eq!(intervals_from_args(&args(&["--quick"]), 5000), 250);
        assert_eq!(intervals_from_args(&args(&["--quick"]), 100), 50);
    }

    #[test]
    fn explicit_intervals_win() {
        assert_eq!(
            intervals_from_args(&args(&["--intervals", "123"]), 5000),
            123
        );
        assert_eq!(
            intervals_from_args(&args(&["--intervals", "bogus"]), 5000),
            5000
        );
    }
}
