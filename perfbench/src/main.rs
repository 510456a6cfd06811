//! The rtmac end-to-end benchmark.
//!
//! ```text
//! rtmac-perfbench --workload <sim-video-10k|paper-figures|emul-loopback-2>
//!                 [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Everything is measured from outside the program: timed calls into its
//! public functions, and timing/counting shims around the trait objects it
//! accepts. The last line of standard output is the JSON result; progress
//! and failed checks go to standard error. See `README.md` beside this
//! crate for the workloads and metrics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod emul;
mod json;
mod paper_figures;
mod report;
mod shims;
mod sim_video;
mod stats;

use std::process::ExitCode;
use std::time::Duration;

use clock::Stopwatch;
use report::Outcome;
use stats::Samples;

/// The seed the checked-in goldens were generated with, and the default.
pub const GOLDEN_SEED: u64 = 2018;

/// Fresh set-ups timed back to back by the traced runs.
const SETUPS: usize = 51;

/// The benchmark's contract, which every result line is checked against
/// before it is printed.
const SPEC: &str = include_str!("../../BENCHMARK.json");

/// Times one call of `setup`, in seconds.
///
/// The untraced runs time a fresh set-up between units of measured work,
/// all through the run, and report the median: a single build varies by an
/// order of magnitude on a shared box, and the box's speed drifts by ~10%
/// over seconds, so back-to-back set-ups would sample one moment of drift.
///
/// # Errors
///
/// Propagates the set-up's failure.
pub fn time_setup(setup: impl FnOnce() -> Result<(), String>) -> Result<f64, String> {
    let t = Stopwatch::start();
    setup()?;
    Ok(t.elapsed().as_secs_f64())
}

/// Times `SETUPS` back-to-back runs of `setup`, in seconds.
///
/// # Errors
///
/// Propagates the first set-up failure.
pub fn time_setups(mut setup: impl FnMut() -> Result<(), String>) -> Result<Samples, String> {
    (0..SETUPS)
        .map(|_| time_setup(&mut setup))
        .collect::<Result<Vec<f64>, String>>()
        .map(Samples::new)
}

#[derive(Debug)]
struct CliArgs {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_cli(args: &[String]) -> Result<CliArgs, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (GOLDEN_SEED, 10, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(CliArgs {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn run_workload(args: &CliArgs) -> Result<Outcome, String> {
    let seconds = Duration::from_secs(args.seconds);
    let workload = match (args.workload.as_str(), args.trace) {
        ("sim-video-10k", false) => sim_video::measure,
        ("sim-video-10k", true) => sim_video::measure_traced,
        ("paper-figures", false) => paper_figures::measure,
        ("paper-figures", true) => paper_figures::measure_traced,
        ("emul-loopback-2", false) => emul::measure,
        ("emul-loopback-2", true) => emul::measure_traced,
        (other, _) => return Err(format!("unknown workload {other}")),
    };
    let mut out = workload(args.seed, seconds)?;
    if args.trace {
        let zeroed = out.zero_unmeasured_layers();
        if !zeroed.is_empty() {
            eprintln!(
                "not exercised by {} (reported as 0): {}",
                args.workload,
                zeroed.join(", ")
            );
        }
    } else {
        out.record_metric("peak_rss_mb", stats::peak_rss_mb()?, "MB");
    }
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_cli(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match run_workload(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for problem in out.problems() {
        eprintln!("failed: {problem}");
    }
    let line = out.result_line();
    if let Err(e) = report::validate_result_line(&line, SPEC, args.trace) {
        eprintln!("error: result line breaks the contract: {e}\n{line}");
        return ExitCode::FAILURE;
    }
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(s: &[&str]) -> Result<CliArgs, String> {
        parse_cli(&s.iter().map(|x| (*x).to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = cli(&[
            "--workload",
            "paper-figures",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("paper-figures", 7, 3, true)
        );
        let d = cli(&["--workload", "x"]).unwrap();
        assert_eq!((d.seed, d.trace), (GOLDEN_SEED, false));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            &["--seed", "1"][..],
            &["--workload"],
            &["--workload", "x", "--trace", "2"],
            &["--workload", "x", "--seconds", "0"],
            &["--workload", "x", "--seed", "-1"],
            &["--workload", "x", "--frobnicate", "1"],
        ] {
            assert!(cli(bad).is_err(), "accepted {bad:?}");
        }
        assert!(run_workload(&cli(&["--workload", "nope"]).unwrap()).is_err());
    }
}
