//! `run`, `compare` and `sweep` resolve `--scenario` the way `rtmac-netd`
//! does: a registry name or a deployment file, parsed by
//! `rtmac_net::scenario_file`.

use std::path::PathBuf;

use rtmac::scenario;
use rtmac::RunReport;
use rtmac_cli::{parse, Command, PolicySpec};
use rtmac_net::scenario_file;

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(str::to_string).collect()
}

fn run_report(args: &str) -> RunReport {
    let Command::Run { opts, policy } = parse(&argv(args)).unwrap() else {
        panic!("expected run: {args}");
    };
    opts.to_scenario(policy).unwrap().run().unwrap()
}

/// Writes `text` to a file unique to this test process and `tag`.
fn scenario_path(tag: &str, text: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("rtmac-cli-{}-{tag}.scenario", std::process::id()));
    std::fs::write(&path, text).unwrap();
    path
}

#[test]
fn a_rendered_registry_file_runs_like_the_registry_name() {
    let text = scenario_file::render(&scenario::by_name("control10").unwrap()).unwrap();
    let path = scenario_path("control10", &text);
    let from_file = run_report(&format!("run --scenario {}", path.display()));
    assert_eq!(from_file, run_report("run --scenario control10"));
    std::fs::remove_file(path).unwrap();
}

#[test]
fn a_file_keeps_its_horizon_seed_and_policy_unless_flags_override() {
    let text = "links = 4\ndeadline_us = 2000\npayload_bytes = 100\nsuccess = 0.9\n\
                traffic = burst:0.2:3\nratio = 0.9\npolicy = fixed\nintervals = 40\nseed = 7\n";
    let path = scenario_path("fixed", text);
    let sc = scenario_file::parse(text).unwrap();
    assert_eq!(sc.policy, PolicySpec::FixedPriority);

    let report = run_report(&format!("run --scenario {}", path.display()));
    assert_eq!(report, sc.run().unwrap());
    assert_eq!(report.intervals, 40);

    let report = run_report(&format!(
        "run --scenario {} --intervals 25 --seed 3 --policy ldf",
        path.display()
    ));
    let overridden = sc
        .with_intervals(25)
        .with_seed(3)
        .with_policy(PolicySpec::Ldf);
    assert_eq!(report, overridden.run().unwrap());

    // compare and sweep read the same file.
    let out = rtmac_cli::run(&argv(&format!(
        "sweep --scenario {} --param alpha --from 0.1 --to 0.3 --steps 2",
        path.display()
    )))
    .unwrap();
    assert_eq!(out.lines().count(), 3, "{out}");
    let out = rtmac_cli::run(&argv(&format!("compare --scenario {}", path.display()))).unwrap();
    assert!(out.contains("FCSMA"), "{out}");
    std::fs::remove_file(path).unwrap();
}

#[test]
fn a_malformed_file_names_its_line() {
    let text = scenario_file::render(&scenario::by_name("tiny").unwrap())
        .unwrap()
        .replace("traffic = constant", "traffic = poisson:2");
    let path = scenario_path("bad", &text);
    let err = rtmac_cli::run(&argv(&format!("run --scenario {}", path.display()))).unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("line 6") && msg.contains("poisson:2"), "{msg}");
    std::fs::remove_file(path).unwrap();
}
