//! Command-line grammar: parsing flags into [`Scenario`]s and rendering
//! [`Scenario`]s back into flags. Flag values use the scenario grammar of
//! [`rtmac::scenario`] (`TrafficSpec::parse`, `PolicySpec::parse`,
//! `Axis::parse`), and `--scenario` resolves through
//! [`rtmac_net::scenario_file::load`].

use std::error::Error;
use std::fmt;

use rtmac::scenario::{Axis, EngineSpec, Param, Scenario, TrafficSpec};
pub use rtmac::PolicySpec;

/// A parse- or run-time CLI error.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CliError {
    /// The first token was not a known subcommand.
    UnknownCommand(String),
    /// A flag is not recognized by this subcommand.
    UnknownFlag(String),
    /// A flag was given without its value.
    MissingValue(String),
    /// A value failed to parse.
    BadValue {
        /// The flag.
        flag: String,
        /// The raw value.
        value: String,
        /// What was expected.
        expected: &'static str,
    },
    /// The parameters are individually valid but inconsistent as a whole
    /// (surfaced from the simulator's own validation).
    Invalid(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::UnknownCommand(c) => {
                write!(
                    f,
                    "unknown command `{c}` (try run, compare, sweep, emulate, netd, help)"
                )
            }
            CliError::UnknownFlag(flag) => write!(f, "unknown flag `{flag}`"),
            CliError::MissingValue(flag) => write!(f, "flag `{flag}` needs a value"),
            CliError::BadValue {
                flag,
                value,
                expected,
            } => write!(f, "flag `{flag}`: `{value}` is not {expected}"),
            CliError::Invalid(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl Error for CliError {}

/// Network and simulation options shared by every subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkOpts {
    /// A registry name or a scenario file, resolved by
    /// [`rtmac_net::scenario_file::load`]; replaces the network-shape
    /// flags below.
    pub scenario: Option<String>,
    /// Number of links.
    pub links: usize,
    /// Per-packet deadline in microseconds.
    pub deadline_us: u64,
    /// Payload size in bytes.
    pub payload: u32,
    /// Uniform channel success probability.
    pub p: f64,
    /// Arrival process.
    pub arrivals: TrafficSpec,
    /// Required delivery ratio.
    pub ratio: f64,
    /// Number of intervals to simulate; `None` keeps the scenario's (1000
    /// for the flag-built network).
    pub intervals: Option<usize>,
    /// RNG seed; `None` keeps the scenario's (0 for the flag-built
    /// network).
    pub seed: Option<u64>,
}

impl Default for NetworkOpts {
    fn default() -> Self {
        NetworkOpts {
            scenario: None,
            links: 10,
            deadline_us: 20_000,
            payload: 1500,
            p: 0.7,
            arrivals: TrafficSpec::Burst {
                alpha: Param::Uniform(0.5),
                burst_max: 6,
            },
            ratio: 0.9,
            intervals: None,
            seed: None,
        }
    }
}

impl NetworkOpts {
    /// The [`Scenario`] this option set describes: the `--scenario`
    /// registry entry or file when given, otherwise a `"custom"` scenario
    /// built from the individual flags (1000 intervals, seed 0, DB-DP).
    /// `--intervals`, `--seed` and `policy` apply on top when given.
    ///
    /// # Errors
    ///
    /// Returns a [`CliError`] when `--scenario` names neither a registry
    /// scenario nor a readable, well-formed scenario file.
    pub fn to_scenario(&self, policy: Option<PolicySpec>) -> Result<Scenario, CliError> {
        let mut sc = match &self.scenario {
            Some(spec) => load_scenario(spec)?,
            None => Scenario {
                name: "custom",
                links: self.links,
                deadline_us: self.deadline_us,
                payload_bytes: self.payload,
                success: Param::Uniform(self.p),
                traffic: self.arrivals.clone(),
                ratio: Param::Uniform(self.ratio),
                policy: PolicySpec::db_dp(),
                intervals: 1000,
                seed: 0,
                replications: 1,
                track: None,
                fault: None,
                admission: None,
                engine: EngineSpec::Timeline,
            },
        };
        if let Some(policy) = policy {
            sc.policy = policy;
        }
        if let Some(intervals) = self.intervals {
            sc.intervals = intervals;
        }
        if let Some(seed) = self.seed {
            sc.seed = seed;
        }
        Ok(sc)
    }
}

/// Resolves a `--scenario` value through
/// [`rtmac_net::scenario_file::load`], as `rtmac-netd` does.
///
/// # Errors
///
/// A value that is neither a registry name nor a readable file is a
/// [`CliError::BadValue`]; a file that does not parse is a
/// [`CliError::Invalid`] naming the line.
pub(crate) fn load_scenario(spec: &str) -> Result<Scenario, CliError> {
    rtmac_net::scenario_file::load(spec).map_err(|e| match e {
        rtmac_net::NetError::Config(_) => CliError::BadValue {
            flag: "--scenario".into(),
            value: spec.to_string(),
            expected: "a registry name (video20, control10, asym, tiny, bursty, \
                       hidden-terminal, poisson-churn, overload-admission) or a \
                       readable scenario file",
        },
        e => CliError::Invalid(e.to_string()),
    })
}

/// Options of `rtmac emulate` — a whole deployment on one box, with the
/// replay contract checked on request.
#[derive(Debug, Clone, PartialEq)]
pub struct EmulateOpts {
    /// Registry scenario name or scenario file path.
    pub scenario: String,
    /// Deployment-size override (`Scenario::with_links`).
    pub links: Option<usize>,
    /// Horizon override.
    pub intervals: Option<usize>,
    /// Seed override.
    pub seed: Option<u64>,
    /// Transport backend for the in-process (thread) mode.
    pub transport: rtmac_net::TransportKind,
    /// Launch one real `rtmac-netd` process per link instead of threads.
    pub processes: bool,
    /// Path to the `rtmac-netd` binary (processes mode); defaults to the
    /// binary next to the running executable.
    pub netd: Option<String>,
    /// Pace nodes at the scenario's real-time interval rate.
    pub realtime: bool,
    /// Per-node peer-silence budget in milliseconds.
    pub timeout_ms: u64,
    /// Write a `key=value` measurement report to this path.
    pub report: Option<String>,
    /// Also run the sim backend and fail unless fingerprints match.
    pub check_replay: bool,
}

impl Default for EmulateOpts {
    fn default() -> Self {
        EmulateOpts {
            scenario: "control10".to_string(),
            links: None,
            intervals: None,
            seed: None,
            transport: rtmac_net::TransportKind::Loopback,
            processes: false,
            netd: None,
            realtime: false,
            timeout_ms: 30_000,
            report: None,
            check_replay: false,
        }
    }
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Simulate one policy.
    Run {
        /// Shared options.
        opts: NetworkOpts,
        /// The `--policy`; `None` keeps the scenario's.
        policy: Option<PolicySpec>,
    },
    /// Run DB-DP, LDF, and FCSMA on the same network.
    Compare {
        /// Shared options.
        opts: NetworkOpts,
    },
    /// Sweep one parameter, comparing the three contenders at each point.
    Sweep {
        /// Shared options (the swept field's value is overridden).
        opts: NetworkOpts,
        /// Which parameter to sweep.
        param: Axis,
        /// First value.
        from: f64,
        /// Last value (inclusive).
        to: f64,
        /// Number of points (≥ 2 unless `from == to`).
        steps: usize,
        /// Report live completed/total and items/sec on stderr.
        progress: bool,
    },
    /// Render ASCII timelines of the DP protocol on the air.
    Timeline {
        /// Shared options (`intervals` bounds how many timelines print).
        opts: NetworkOpts,
    },
    /// Emulate a whole deployment (threads or `rtmac-netd` processes) on
    /// this box and report wall-clock deadline-miss rates.
    Emulate {
        /// Emulation options.
        opts: EmulateOpts,
    },
    /// Run one link of a UDP deployment in-process — the same flags as the
    /// standalone `rtmac-netd` binary, parsed by `rtmac-net` itself.
    Netd {
        /// Raw daemon arguments, handed to [`rtmac_net::netd::parse`].
        args: Vec<String>,
    },
    /// Print usage.
    Help,
}

fn parse_num<T: std::str::FromStr>(
    flag: &str,
    value: &str,
    expected: &'static str,
) -> Result<T, CliError> {
    value.parse().map_err(|_| CliError::BadValue {
        flag: flag.to_string(),
        value: value.to_string(),
        expected,
    })
}

/// Parses a flag value with one of the scenario grammar's parsers.
fn parse_spec<T>(
    flag: &str,
    value: &str,
    parse: impl FnOnce(&str) -> Option<T>,
    expected: &'static str,
) -> Result<T, CliError> {
    parse(value).ok_or_else(|| CliError::BadValue {
        flag: flag.to_string(),
        value: value.to_string(),
        expected,
    })
}

/// Renders a scenario back into `rtmac run` argument tokens — the inverse
/// of [`parse`] for every configuration the flags can express (uniform
/// `p` and ratio, a renderable traffic spec and policy, no tracking, fault
/// injection, admission or replications; `None` otherwise). Round trip:
/// parsing the rendered tokens and calling [`NetworkOpts::to_scenario`]
/// reproduces the scenario, field for field.
#[must_use]
pub fn render_run_command(sc: &Scenario) -> Option<Vec<String>> {
    if sc.track.is_some()
        || sc.fault.is_some()
        || sc.admission.is_some()
        || sc.replications != 1
        || sc.engine != EngineSpec::default()
    {
        return None;
    }
    let tokens = [
        ("--links", sc.links.to_string()),
        ("--deadline-us", sc.deadline_us.to_string()),
        ("--payload", sc.payload_bytes.to_string()),
        ("--p", sc.success.uniform_value()?.to_string()),
        ("--arrivals", sc.traffic.render()?),
        ("--ratio", sc.ratio.uniform_value()?.to_string()),
        ("--intervals", sc.intervals.to_string()),
        ("--seed", sc.seed.to_string()),
        ("--policy", sc.policy.render()?),
    ];
    let mut argv = vec!["run".to_string()];
    for (flag, value) in tokens {
        argv.push(flag.to_string());
        argv.push(value);
    }
    Some(argv)
}

/// Parses a full argument vector into a [`Command`].
///
/// # Errors
///
/// Returns a [`CliError`] describing the first problem encountered.
pub fn parse(argv: &[String]) -> Result<Command, CliError> {
    let Some(command) = argv.first() else {
        return Ok(Command::Help);
    };
    match command.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "run" | "compare" | "sweep" | "timeline" => parse_subcommand(command, &argv[1..]),
        "emulate" => parse_emulate(&argv[1..]),
        "netd" => Ok(Command::Netd {
            args: argv[1..].to_vec(),
        }),
        other => Err(CliError::UnknownCommand(other.to_string())),
    }
}

fn parse_emulate(rest: &[String]) -> Result<Command, CliError> {
    let mut opts = EmulateOpts::default();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut value_for = || -> Result<&String, CliError> {
            it.next()
                .ok_or_else(|| CliError::MissingValue(flag.clone()))
        };
        match flag.as_str() {
            "--scenario" => opts.scenario = value_for()?.clone(),
            "--links" => {
                opts.links = Some(parse_num(flag, value_for()?, "a positive integer")?);
            }
            "--intervals" => {
                opts.intervals = Some(parse_num(flag, value_for()?, "an interval count")?);
            }
            "--seed" => opts.seed = Some(parse_num(flag, value_for()?, "an integer seed")?),
            "--transport" => {
                let value = value_for()?;
                opts.transport =
                    rtmac_net::TransportKind::parse(value).ok_or_else(|| CliError::BadValue {
                        flag: flag.clone(),
                        value: value.clone(),
                        expected: "loopback or udp",
                    })?;
            }
            "--processes" => opts.processes = true,
            "--netd" => opts.netd = Some(value_for()?.clone()),
            "--realtime" => opts.realtime = true,
            "--timeout-ms" => {
                opts.timeout_ms = parse_num(flag, value_for()?, "a duration in ms")?;
            }
            "--report" => opts.report = Some(value_for()?.clone()),
            "--check-replay" => opts.check_replay = true,
            other => return Err(CliError::UnknownFlag(other.to_string())),
        }
    }
    Ok(Command::Emulate { opts })
}

fn parse_subcommand(command: &str, rest: &[String]) -> Result<Command, CliError> {
    let mut opts = NetworkOpts::default();
    let mut policy = None;
    let mut param = None;
    let mut from = None;
    let mut to = None;
    let mut steps = 5usize;
    let mut progress = false;
    // A named scenario fixes the network shape, so shape flags conflict
    // with `--scenario` (while --intervals/--seed/--policy compose).
    let mut shape_flag: Option<String> = None;

    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut value_for = || -> Result<&String, CliError> {
            it.next()
                .ok_or_else(|| CliError::MissingValue(flag.clone()))
        };
        let mut shape = |flag: &str| {
            if shape_flag.is_none() {
                shape_flag = Some(flag.to_string());
            }
        };
        match flag.as_str() {
            "--scenario" if command != "timeline" => {
                opts.scenario = Some(value_for()?.clone());
            }
            "--links" => {
                shape(flag);
                opts.links = parse_num(flag, value_for()?, "a positive integer")?;
            }
            "--deadline-ms" => {
                shape(flag);
                opts.deadline_us = parse_num::<u64>(flag, value_for()?, "a duration in ms")? * 1000;
            }
            "--deadline-us" => {
                shape(flag);
                opts.deadline_us = parse_num(flag, value_for()?, "a duration in us")?;
            }
            "--payload" => {
                shape(flag);
                opts.payload = parse_num(flag, value_for()?, "a byte count")?;
            }
            "--p" => {
                shape(flag);
                opts.p = parse_num(flag, value_for()?, "a probability")?;
            }
            "--arrivals" => {
                shape(flag);
                opts.arrivals =
                    parse_spec(flag, value_for()?, TrafficSpec::parse, TrafficSpec::GRAMMAR)?;
            }
            "--ratio" => {
                shape(flag);
                opts.ratio = parse_num(flag, value_for()?, "a ratio in (0,1]")?;
            }
            "--intervals" => {
                opts.intervals = Some(parse_num(flag, value_for()?, "an interval count")?);
            }
            "--seed" => opts.seed = Some(parse_num(flag, value_for()?, "an integer seed")?),
            "--policy" if command == "run" => {
                let value = value_for()?;
                policy = Some(parse_spec(
                    flag,
                    value,
                    PolicySpec::parse,
                    PolicySpec::GRAMMAR,
                )?);
            }
            "--progress" if command == "sweep" => progress = true,
            "--param" if command == "sweep" => {
                param = Some(parse_spec(flag, value_for()?, Axis::parse, Axis::GRAMMAR)?);
            }
            "--from" if command == "sweep" => {
                from = Some(parse_num(flag, value_for()?, "a number")?);
            }
            "--to" if command == "sweep" => to = Some(parse_num(flag, value_for()?, "a number")?),
            "--steps" if command == "sweep" => {
                steps = parse_num(flag, value_for()?, "a point count")?;
            }
            other => return Err(CliError::UnknownFlag(other.to_string())),
        }
    }

    if let (Some(_), Some(flag)) = (&opts.scenario, &shape_flag) {
        return Err(CliError::Invalid(format!(
            "`--scenario` fixes the network shape and cannot be combined with `{flag}` \
             (use --intervals/--seed/--policy to customize, or drop --scenario)"
        )));
    }

    match command {
        "run" => Ok(Command::Run { opts, policy }),
        "compare" => Ok(Command::Compare { opts }),
        "timeline" => Ok(Command::Timeline { opts }),
        "sweep" => {
            let param = param.ok_or(CliError::MissingValue("--param".into()))?;
            let from = from.ok_or(CliError::MissingValue("--from".into()))?;
            let to = to.ok_or(CliError::MissingValue("--to".into()))?;
            if steps == 0 {
                return Err(CliError::BadValue {
                    flag: "--steps".into(),
                    value: "0".into(),
                    expected: "at least 1 point",
                });
            }
            Ok(Command::Sweep {
                opts,
                param,
                from,
                to,
                steps,
                progress,
            })
        }
        _ => unreachable!("caller filters commands"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtmac::scenario;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn empty_and_help_forms() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        for form in ["help", "--help", "-h"] {
            assert_eq!(parse(&argv(form)).unwrap(), Command::Help);
        }
    }

    #[test]
    fn run_parses_all_flags() {
        let cmd = parse(&argv(
            "run --links 20 --deadline-ms 20 --payload 1500 --p 0.7 \
             --arrivals burst:0.55 --ratio 0.9 --policy fcsma \
             --intervals 5000 --seed 42",
        ))
        .unwrap();
        let Command::Run { opts, policy } = cmd else {
            panic!("expected run");
        };
        assert_eq!(policy, Some(PolicySpec::Fcsma));
        assert_eq!(opts.links, 20);
        assert_eq!(opts.deadline_us, 20_000);
        assert_eq!(opts.payload, 1500);
        assert_eq!(
            opts.arrivals,
            TrafficSpec::Burst {
                alpha: Param::Uniform(0.55),
                burst_max: 6
            }
        );
        assert_eq!(opts.seed, Some(42));
    }

    #[test]
    fn deadline_us_form() {
        let cmd = parse(&argv("run --deadline-us 700")).unwrap();
        let Command::Run { opts, .. } = cmd else {
            panic!()
        };
        assert_eq!(opts.deadline_us, 700);
    }

    #[test]
    fn scenario_flag_selects_named_workload() {
        let cmd = parse(&argv("run --scenario video20 --intervals 50 --seed 9")).unwrap();
        let Command::Run { opts, policy } = cmd else {
            panic!()
        };
        let sc = opts.to_scenario(policy).unwrap();
        assert_eq!(sc.name, "video20");
        assert_eq!(sc.links, 20);
        assert_eq!(sc.intervals, 50);
        assert_eq!(sc.seed, 9);
    }

    #[test]
    fn scenario_flag_conflicts_with_shape_flags() {
        assert!(matches!(
            parse(&argv("run --scenario video20 --links 5")),
            Err(CliError::Invalid(_))
        ));
        // Order does not matter.
        assert!(matches!(
            parse(&argv("compare --p 0.8 --scenario tiny")),
            Err(CliError::Invalid(_))
        ));
        // --intervals/--seed compose fine.
        assert!(parse(&argv("run --scenario tiny --intervals 10 --seed 3")).is_ok());
    }

    #[test]
    fn unknown_scenario_is_reported_at_lookup() {
        let cmd = parse(&argv("run --scenario warehouse")).unwrap();
        let Command::Run { opts, policy } = cmd else {
            panic!()
        };
        assert!(matches!(
            opts.to_scenario(policy),
            Err(CliError::BadValue { .. })
        ));
    }

    fn run_opts(args: &str) -> Result<(NetworkOpts, Option<PolicySpec>), CliError> {
        match parse(&argv(&format!("run {args}")))? {
            Command::Run { opts, policy } => Ok((opts, policy)),
            other => panic!("expected run, got {other:?}"),
        }
    }

    #[test]
    fn arrivals_take_the_scenario_grammar() {
        for (value, want) in [
            (
                "bernoulli:0.78",
                TrafficSpec::Bernoulli {
                    lambda: Param::Uniform(0.78),
                },
            ),
            ("constant", TrafficSpec::Constant),
            (
                "burst:0.5:3",
                TrafficSpec::Burst {
                    alpha: Param::Uniform(0.5),
                    burst_max: 3,
                },
            ),
        ] {
            let (opts, _) = run_opts(&format!("--arrivals {value}")).unwrap();
            assert_eq!(opts.arrivals, want, "{value}");
        }
        for bad in ["poisson:2", "burst:x"] {
            assert!(matches!(
                run_opts(&format!("--arrivals {bad}")),
                Err(CliError::BadValue { .. })
            ));
        }
    }

    #[test]
    fn every_policy_name_parses() {
        for (name, spec) in [
            ("db-dp", PolicySpec::db_dp()),
            ("dbdp", PolicySpec::db_dp()),
            ("db-dp:pairs=3", PolicySpec::db_dp_pairs(3)),
            ("ldf", PolicySpec::Ldf),
            ("eldf", PolicySpec::eldf()),
            ("fcsma", PolicySpec::Fcsma),
            ("dcf", PolicySpec::Dcf),
            ("frame-csma", PolicySpec::frame_csma()),
            ("framecsma", PolicySpec::frame_csma()),
            ("fixed", PolicySpec::FixedPriority),
        ] {
            let (_, policy) = run_opts(&format!("--policy {name}")).unwrap();
            assert_eq!(policy, Some(spec), "{name}");
        }
        assert!(matches!(
            run_opts("--policy tdma"),
            Err(CliError::BadValue { .. })
        ));
        // Without --policy the scenario keeps its own.
        assert_eq!(run_opts("--links 3").unwrap().1, None);
    }

    #[test]
    fn rendered_policies_parse_back() {
        let base = scenario::by_name("tiny").unwrap();
        for policy in [
            PolicySpec::db_dp(),
            PolicySpec::db_dp_pairs(3),
            PolicySpec::frame_csma(),
            PolicySpec::FixedPriority,
        ] {
            let argv = render_run_command(&base.clone().with_policy(policy)).unwrap();
            let Command::Run { opts, policy: back } = parse(&argv).unwrap() else {
                panic!()
            };
            assert_eq!(opts.to_scenario(back).unwrap().policy, policy);
        }
    }

    #[test]
    fn render_covers_the_flag_grammar_only() {
        let sc = scenario::by_name("video20").unwrap();
        let argv = render_run_command(&sc).expect("video20 is flag-expressible");
        let Command::Run { opts, policy } = parse(&argv).unwrap() else {
            panic!()
        };
        let back = opts.to_scenario(policy).unwrap();
        assert_eq!(
            Scenario {
                name: "video20",
                ..back
            },
            sc
        );
        // Per-link parameters are not expressible.
        assert_eq!(
            render_run_command(&scenario::by_name("asym").unwrap()),
            None
        );
        // Neither is Fig. 5's tracking instrumentation.
        assert_eq!(render_run_command(&scenario::fig5(100, 0)), None);
    }

    #[test]
    fn sweep_requires_param_from_to() {
        assert_eq!(
            parse(&argv("sweep --from 0.1 --to 0.2")),
            Err(CliError::MissingValue("--param".into()))
        );
        assert_eq!(
            parse(&argv("sweep --param alpha --to 0.2")),
            Err(CliError::MissingValue("--from".into()))
        );
        let cmd = parse(&argv("sweep --param ratio --from 0.8 --to 1.0 --steps 3")).unwrap();
        let Command::Sweep {
            param,
            from,
            to,
            steps,
            ..
        } = cmd
        else {
            panic!()
        };
        assert_eq!(param, Axis::Ratio);
        assert_eq!((from, to, steps), (0.8, 1.0, 3));
    }

    #[test]
    fn sweep_rejects_zero_steps() {
        assert!(matches!(
            parse(&argv("sweep --param p --from 0.5 --to 0.9 --steps 0")),
            Err(CliError::BadValue { .. })
        ));
    }

    #[test]
    fn emulate_parses_its_flags() {
        let cmd = parse(&argv(
            "emulate --scenario tiny --links 12 --intervals 40 --seed 7 \
             --transport udp --processes --netd /opt/rtmac-netd --realtime \
             --timeout-ms 5000 --report /tmp/emul.txt --check-replay",
        ))
        .unwrap();
        let Command::Emulate { opts } = cmd else {
            panic!("expected emulate");
        };
        assert_eq!(opts.scenario, "tiny");
        assert_eq!(opts.links, Some(12));
        assert_eq!(opts.intervals, Some(40));
        assert_eq!(opts.seed, Some(7));
        assert_eq!(opts.transport, rtmac_net::TransportKind::Udp);
        assert!(opts.processes && opts.realtime && opts.check_replay);
        assert_eq!(opts.timeout_ms, 5000);
        assert_eq!(opts.netd.as_deref(), Some("/opt/rtmac-netd"));
    }

    #[test]
    fn emulate_rejects_bad_transport_and_unknown_flags() {
        assert!(matches!(
            parse(&argv("emulate --transport pigeon")),
            Err(CliError::BadValue { .. })
        ));
        assert!(matches!(
            parse(&argv("emulate --frobnicate")),
            Err(CliError::UnknownFlag(_))
        ));
    }

    #[test]
    fn netd_passes_raw_args_through() {
        let cmd = parse(&argv("netd --scenario tiny --link 0")).unwrap();
        assert_eq!(
            cmd,
            Command::Netd {
                args: argv("--scenario tiny --link 0"),
            }
        );
    }

    #[test]
    fn errors_are_specific() {
        assert_eq!(
            parse(&argv("teleport")),
            Err(CliError::UnknownCommand("teleport".into()))
        );
        assert_eq!(
            parse(&argv("run --bogus 1")),
            Err(CliError::UnknownFlag("--bogus".into()))
        );
        assert_eq!(
            parse(&argv("run --links")),
            Err(CliError::MissingValue("--links".into()))
        );
        // run-only flags rejected elsewhere:
        assert_eq!(
            parse(&argv("compare --policy ldf")),
            Err(CliError::UnknownFlag("--policy".into()))
        );
        // timeline does not take --scenario (it drives the engine, not a
        // network):
        assert_eq!(
            parse(&argv("timeline --scenario tiny")),
            Err(CliError::UnknownFlag("--scenario".into()))
        );
    }

    #[test]
    fn error_messages_are_lowercase_and_helpful() {
        let msg = CliError::BadValue {
            flag: "--p".into(),
            value: "two".into(),
            expected: "a probability",
        }
        .to_string();
        assert!(msg.contains("--p") && msg.contains("two") && msg.contains("probability"));
    }
}
