//! The many-link emulation harness and the replay contract check.
//!
//! [`run_emulation`] launches one [`LinkNode`] per link — as threads in
//! this process, over either the loopback or the UDP transport — runs the
//! deployment to completion, cross-checks every node's decision-trace
//! fingerprint, and folds the per-node wall-clock measurements into one
//! [`EmulationReport`]. [`run_emulation_processes`] does the same with one
//! real `rtmac-netd` process per link exchanging datagrams over localhost
//! sockets. [`replay_check`] is the contract in executable form: the same
//! scenario and seed through the sim, loopback, and (optionally) UDP
//! backends must produce the same fingerprint.

use std::io::Write;
use std::net::UdpSocket;
use std::path::{Path, PathBuf};
use std::time::Duration;

use rtmac::scenario::Scenario;
use rtmac::RunReport;

use crate::error::NetError;
use crate::netd;
use crate::node::{LinkNode, NodeConfig, NodeReport};
use crate::scenario_file::{self, KeyValues};
use crate::sim::sim_trace;
use crate::transport::{LoopbackHub, Transport};
use crate::udp::UdpTransport;

/// Which transport backend an emulation runs over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// In-memory channels; delivery is lossless and ordered.
    Loopback,
    /// Real UDP sockets on localhost; delivery may drop, duplicate, or
    /// reorder (it rarely does on loopback interfaces).
    Udp,
}

impl TransportKind {
    /// The backend name used in reports and CLI flags.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            TransportKind::Loopback => "loopback",
            TransportKind::Udp => "udp",
        }
    }

    /// Parses a CLI flag value.
    ///
    /// # Example
    ///
    /// ```
    /// use rtmac_net::TransportKind;
    ///
    /// assert_eq!(TransportKind::parse("udp"), Some(TransportKind::Udp));
    /// assert_eq!(TransportKind::parse("smoke-signal"), None);
    /// ```
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "loopback" => Some(TransportKind::Loopback),
            "udp" => Some(TransportKind::Udp),
            _ => None,
        }
    }
}

/// Configuration for one emulation run.
#[derive(Debug, Clone)]
pub struct EmulationConfig {
    /// The shared scenario (its `links` field sets the deployment size).
    pub scenario: Scenario,
    /// Intervals to run.
    pub intervals: usize,
    /// Transport backend.
    pub transport: TransportKind,
    /// Pace each node at the scenario's real-time interval rate.
    pub realtime: bool,
    /// Per-node peer-silence budget (see [`NodeConfig::sync_timeout`]).
    pub sync_timeout: Duration,
}

impl EmulationConfig {
    /// A loopback, non-realtime config with the default 30 s sync timeout.
    ///
    /// # Example
    ///
    /// ```
    /// use rtmac_net::{EmulationConfig, TransportKind};
    ///
    /// let sc = rtmac::scenario::by_name("tiny").unwrap();
    /// let cfg = EmulationConfig::new(sc, 50);
    /// assert_eq!(cfg.transport, TransportKind::Loopback);
    /// ```
    #[must_use]
    pub fn new(scenario: Scenario, intervals: usize) -> Self {
        EmulationConfig {
            scenario,
            intervals,
            transport: TransportKind::Loopback,
            realtime: false,
            sync_timeout: Duration::from_secs(30),
        }
    }
}

/// What a whole emulation measured.
#[derive(Debug, Clone)]
pub struct EmulationReport {
    /// Backend name (`"loopback"`, `"udp"`, or `"udp-processes"`).
    pub backend: &'static str,
    /// Deployment size.
    pub links: usize,
    /// Intervals run.
    pub intervals: usize,
    /// The decision-trace fingerprint every node agreed on.
    pub fingerprint: u64,
    /// The protocol-level run report (identical on every replica).
    pub run: RunReport,
    /// Total wall-clock deadline misses across all nodes.
    pub misses: u64,
    /// `misses / (links × intervals)` — the measured fraction of link
    /// intervals whose real-time exchange overran the deadline.
    pub miss_rate: f64,
    /// Per-link wall-clock miss counts.
    pub per_link_misses: Vec<u64>,
    /// Longest wall-clock interval any node observed.
    pub max_interval: Duration,
    /// Mean of the nodes' mean wall-clock interval durations.
    pub mean_interval: Duration,
}

/// Runs one node per link as threads in this process and folds their
/// reports.
///
/// # Errors
///
/// Propagates the first node error ([`NetError::Desync`],
/// [`NetError::Timeout`], ...), and returns [`NetError::Mismatch`] if the
/// nodes' fingerprints somehow disagree (which would be a bug in the
/// lockstep layer — every desync has a dedicated error path).
///
/// # Panics
///
/// Panics if a node thread panics.
///
/// # Example
///
/// ```
/// use rtmac_net::{run_emulation, EmulationConfig};
///
/// let sc = rtmac::scenario::by_name("tiny").unwrap();
/// let report = run_emulation(&EmulationConfig::new(sc, 20)).unwrap();
/// assert_eq!(report.links, 3);
/// assert_eq!(report.run.intervals, 20);
/// ```
pub fn run_emulation(cfg: &EmulationConfig) -> Result<EmulationReport, NetError> {
    let n = cfg.scenario.links;
    let results: Vec<Result<NodeReport, NetError>> = match cfg.transport {
        TransportKind::Loopback => run_nodes(cfg, LoopbackHub::endpoints(n)),
        TransportKind::Udp => run_nodes(cfg, UdpTransport::local_cluster(n)?),
    };
    let mut reports = Vec::with_capacity(n);
    for result in results {
        reports.push(result?);
    }
    fold_reports(cfg.transport.name(), cfg, reports)
}

fn run_nodes<T: Transport + Send>(
    cfg: &EmulationConfig,
    endpoints: Vec<T>,
) -> Vec<Result<NodeReport, NetError>> {
    std::thread::scope(|scope| {
        endpoints
            .into_iter()
            .map(|ep| {
                let node_cfg = NodeConfig {
                    scenario: cfg.scenario.clone(),
                    intervals: cfg.intervals,
                    sync_timeout: cfg.sync_timeout,
                    realtime: cfg.realtime,
                };
                scope.spawn(move || LinkNode::new(ep, node_cfg)?.run())
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|handle| handle.join().expect("link node thread panicked"))
            .collect()
    })
}

fn fold_reports(
    backend: &'static str,
    cfg: &EmulationConfig,
    reports: Vec<NodeReport>,
) -> Result<EmulationReport, NetError> {
    let n = cfg.scenario.links;
    let fingerprint = reports.first().map(|r| r.fingerprint).unwrap_or_default();
    for r in &reports {
        if r.fingerprint != fingerprint {
            return Err(NetError::Mismatch {
                what: format!("link {} decision-trace fingerprint", r.link),
                expected: fingerprint,
                got: r.fingerprint,
            });
        }
    }
    let misses: u64 = reports.iter().map(|r| r.misses).sum();
    let mut per_link_misses = vec![0u64; n];
    for r in &reports {
        per_link_misses[r.link] = r.misses;
    }
    let total_intervals = (n * cfg.intervals) as u64;
    let run = match reports.first() {
        Some(r) => r.report.clone(),
        None => sim_trace(&cfg.scenario, cfg.intervals)?.report,
    };
    Ok(EmulationReport {
        backend,
        links: n,
        intervals: cfg.intervals,
        fingerprint,
        run,
        misses,
        miss_rate: if total_intervals == 0 {
            0.0
        } else {
            misses as f64 / total_intervals as f64
        },
        per_link_misses,
        max_interval: reports
            .iter()
            .map(|r| r.max_interval)
            .max()
            .unwrap_or(Duration::ZERO),
        mean_interval: mean_duration(reports.iter().map(|r| r.mean_interval)),
    })
}

fn mean_duration(durations: impl ExactSizeIterator<Item = Duration>) -> Duration {
    let n = durations.len() as u32;
    if n == 0 {
        return Duration::ZERO;
    }
    durations
        .sum::<Duration>()
        .checked_div(n)
        .unwrap_or(Duration::ZERO)
}

/// Runs one real `rtmac-netd` process per link over localhost UDP.
///
/// The harness renders the scenario to a temporary file (so every child
/// parses the exact same text and therefore computes the same scenario
/// digest), pre-assigns one localhost port per link, launches the daemon
/// processes in a full mesh, and reads back each child's `key=value`
/// report file. The protocol-level [`RunReport`] comes from a local sim
/// replica, whose fingerprint every child must match.
///
/// # Errors
///
/// Returns [`NetError::Unsupported`] when the scenario cannot be rendered
/// to a file, [`NetError::Io`] for spawn/port/report-file failures, a
/// child's own error kind when one exits unsuccessfully, and
/// [`NetError::Mismatch`] when a child's fingerprint differs from the sim.
///
/// # Panics
///
/// Propagates policy-engine panics from the harness's local sim replica,
/// as in [`rtmac::Network::step`].
pub fn run_emulation_processes(
    cfg: &EmulationConfig,
    netd: &Path,
) -> Result<EmulationReport, NetError> {
    // Canonicalize through the file format once so the harness's own
    // digest-relevant scenario equals the children's parse result.
    let rendered = scenario_file::render(&cfg.scenario)?;
    let scenario = scenario_file::parse(&rendered)?;
    let n = scenario.links;

    let dir = std::env::temp_dir().join(format!("rtmac-netd-emul-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    let scenario_path = dir.join("scenario.toml");
    std::fs::File::create(&scenario_path)?.write_all(rendered.as_bytes())?;

    // Reserve one OS-assigned port per link, then release the sockets so
    // the children can bind them. The gap is racy in principle; on a box
    // that is not churning ephemeral ports it is reliable, and a lost race
    // fails loudly as a bind error in the child.
    let mut addrs = Vec::with_capacity(n);
    for _ in 0..n {
        let socket = UdpSocket::bind(("127.0.0.1", 0))?;
        addrs.push(socket.local_addr()?);
    }

    let mut children = Vec::with_capacity(n);
    for link in 0..n {
        let peers: Vec<String> = addrs
            .iter()
            .enumerate()
            .filter(|&(peer, _)| peer != link)
            .map(|(_, a)| a.to_string())
            .collect();
        let report_path = dir.join(format!("report-{link}.txt"));
        let mut command = std::process::Command::new(netd);
        command
            .arg("--scenario")
            .arg(&scenario_path)
            .arg("--link")
            .arg(link.to_string())
            .arg("--bind")
            .arg(addrs[link].to_string())
            .arg("--peers")
            .arg(peers.join(","))
            .arg("--intervals")
            .arg(cfg.intervals.to_string())
            .arg("--timeout-ms")
            .arg(cfg.sync_timeout.as_millis().to_string())
            .arg("--report")
            .arg(&report_path)
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::piped());
        if cfg.realtime {
            command.arg("--realtime");
        }
        let child = command
            .spawn()
            .map_err(|e| NetError::Io(format!("cannot launch {}: {e}", netd.display())))?;
        children.push((child, report_path));
    }

    let mut reports = Vec::with_capacity(n);
    let mut failure: Option<NetError> = None;
    for (link, (child, report_path)) in children.into_iter().enumerate() {
        let output = child.wait_with_output()?;
        if !output.status.success() && failure.is_none() {
            let stderr = String::from_utf8_lossy(&output.stderr);
            failure = Some(NetError::Io(format!(
                "rtmac-netd for link {link} exited with {}: {}",
                output.status,
                stderr.trim()
            )));
        }
        if failure.is_none() {
            // A bad report fails the run only after every child is reaped
            // and the scratch directory removed.
            let report = std::fs::read_to_string(&report_path)
                .map_err(|e| NetError::Io(format!("no report from link {link}: {e}")))
                .and_then(|text| parse_child_report(&text));
            match report {
                Ok(report) => reports.push(report),
                Err(e) => failure = Some(e),
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    if let Some(err) = failure {
        return Err(err);
    }

    let sim = sim_trace(&scenario, cfg.intervals)?;
    let fingerprint = sim.fingerprint;
    let mut per_link_misses = vec![0u64; n];
    let mut misses = 0u64;
    let mut max_interval = Duration::ZERO;
    let mut mean_sum = Duration::ZERO;
    for child in &reports {
        if child.fingerprint != fingerprint {
            return Err(NetError::Mismatch {
                what: format!("link {} decision-trace fingerprint (vs sim)", child.link),
                expected: fingerprint,
                got: child.fingerprint,
            });
        }
        per_link_misses[child.link] = child.misses;
        misses += child.misses;
        max_interval = max_interval.max(child.max_interval);
        mean_sum += child.mean_interval;
    }
    let total_intervals = (n * cfg.intervals) as u64;
    Ok(EmulationReport {
        backend: "udp-processes",
        links: n,
        intervals: cfg.intervals,
        fingerprint,
        run: sim.report,
        misses,
        miss_rate: if total_intervals == 0 {
            0.0
        } else {
            misses as f64 / total_intervals as f64
        },
        per_link_misses,
        max_interval,
        mean_interval: mean_sum
            .checked_div(n.max(1) as u32)
            .unwrap_or(Duration::ZERO),
    })
}

/// One child daemon's measurements, parsed from its report file.
#[derive(Debug, Clone)]
struct ChildReport {
    link: usize,
    fingerprint: u64,
    misses: u64,
    max_interval: Duration,
    mean_interval: Duration,
}

/// Reads a child daemon's [`netd::render_report`] text. Every key the
/// daemon writes must be present with a well-formed value, and nothing
/// else may appear.
fn parse_child_report(text: &str) -> Result<ChildReport, NetError> {
    let kv = KeyValues::read("child report", text, &netd::REPORT_KEYS)?;
    for key in [
        netd::REPORT_FRAMES,
        netd::REPORT_INTERVALS,
        netd::REPORT_ATTEMPTS,
    ] {
        kv.integer::<u64>(key)?;
    }
    let micros = |key| kv.integer(key).map(Duration::from_micros);
    Ok(ChildReport {
        link: kv.integer(netd::REPORT_LINK)?,
        fingerprint: kv.value(
            netd::REPORT_FINGERPRINT,
            |v| {
                v.strip_prefix("0x")
                    .and_then(|hex| u64::from_str_radix(hex, 16).ok())
            },
            "a 0x-prefixed hex number",
        )?,
        misses: kv.integer(netd::REPORT_MISSES)?,
        max_interval: micros(netd::REPORT_MAX_INTERVAL_US)?,
        mean_interval: micros(netd::REPORT_MEAN_INTERVAL_US)?,
    })
}

/// The default location of the `rtmac-netd` binary: next to the current
/// executable (which is where cargo puts workspace binaries).
#[must_use]
pub fn default_netd_path() -> PathBuf {
    let name = if cfg!(windows) {
        "rtmac-netd.exe"
    } else {
        "rtmac-netd"
    };
    std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.join(name)))
        .unwrap_or_else(|| PathBuf::from(name))
}

/// The replay contract's verdict: one scenario, one seed, every backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayVerdict {
    /// Deployment size checked.
    pub links: usize,
    /// Intervals checked.
    pub intervals: usize,
    /// The sim backend's fingerprint (the reference).
    pub sim: u64,
    /// The loopback deployment's fingerprint.
    pub loopback: u64,
    /// The UDP deployment's fingerprint, when that leg was run.
    pub udp: Option<u64>,
}

impl ReplayVerdict {
    /// True when every backend produced the reference fingerprint.
    #[must_use]
    pub fn matches(&self) -> bool {
        self.loopback == self.sim && self.udp.is_none_or(|udp| udp == self.sim)
    }
}

/// Runs the replay contract: `sc` for `intervals` intervals through the
/// sim and loopback backends (plus UDP when `udp` is true) and reports
/// each fingerprint.
///
/// # Errors
///
/// Propagates any emulation error; a *successful* return with
/// `matches() == false` means the contract itself is broken.
///
/// # Panics
///
/// Panics if a node thread panics, as in [`run_emulation`].
///
/// # Example
///
/// ```
/// use rtmac_net::replay_check;
///
/// let sc = rtmac::scenario::by_name("tiny").unwrap();
/// let verdict = replay_check(&sc, 15, false).unwrap();
/// assert!(verdict.matches());
/// ```
pub fn replay_check(sc: &Scenario, intervals: usize, udp: bool) -> Result<ReplayVerdict, NetError> {
    let sim = sim_trace(sc, intervals)?;
    let mut cfg = EmulationConfig::new(sc.clone(), intervals);
    let loopback = run_emulation(&cfg)?;
    let udp = if udp {
        cfg.transport = TransportKind::Udp;
        Some(run_emulation(&cfg)?.fingerprint)
    } else {
        None
    };
    Ok(ReplayVerdict {
        links: sc.links,
        intervals,
        sim: sim.fingerprint,
        loopback: loopback.fingerprint,
        udp,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtmac::scenario;

    #[test]
    fn loopback_emulation_matches_sim() {
        let sc = scenario::by_name("tiny").unwrap();
        let report = run_emulation(&EmulationConfig::new(sc.clone(), 30)).unwrap();
        let sim = sim_trace(&sc, 30).unwrap();
        assert_eq!(report.fingerprint, sim.fingerprint);
        assert_eq!(
            report.run.per_link_throughput,
            sim.report.per_link_throughput
        );
        assert_eq!(report.per_link_misses.len(), 3);
    }

    #[test]
    fn udp_emulation_matches_sim() {
        let sc = scenario::by_name("tiny").unwrap();
        let mut cfg = EmulationConfig::new(sc.clone(), 20);
        cfg.transport = TransportKind::Udp;
        let report = run_emulation(&cfg).unwrap();
        assert_eq!(report.backend, "udp");
        assert_eq!(report.fingerprint, sim_trace(&sc, 20).unwrap().fingerprint);
    }

    #[test]
    fn replay_verdict_spots_disagreement() {
        let verdict = ReplayVerdict {
            links: 3,
            intervals: 10,
            sim: 1,
            loopback: 1,
            udp: Some(2),
        };
        assert!(!verdict.matches());
        assert!(ReplayVerdict {
            udp: None,
            ..verdict
        }
        .matches());
    }

    const CHILD_REPORT: &str = "link=4\nfingerprint=0x00000000000000ff\nframes=30\nmisses=2\n\
                                max_interval_us=900\nmean_interval_us=120\nintervals=10\n\
                                attempts=7\n";

    #[test]
    fn child_report_round_trip_parses() {
        let report = parse_child_report(CHILD_REPORT).unwrap();
        assert_eq!(report.link, 4);
        assert_eq!(report.fingerprint, 0xff);
        assert_eq!(report.misses, 2);
        assert_eq!(report.max_interval, Duration::from_micros(900));
        assert_eq!(report.mean_interval, Duration::from_micros(120));
    }

    #[test]
    fn damaged_child_reports_are_parse_errors_naming_the_fault() {
        let line_of = |text: &str| match parse_child_report(text) {
            Err(NetError::Parse { line, msg }) => (line, msg),
            other => panic!("expected a parse error, got {other:?}"),
        };
        // Corrupted: a line lost its `=`, and a key was garbled.
        let (line, msg) = line_of(&CHILD_REPORT.replace("misses=2", "misses 2"));
        assert_eq!(line, 4, "{msg}");
        let (line, msg) = line_of(&CHILD_REPORT.replace("frames=", "fr@mes="));
        assert!(line == 3 && msg.contains("fr@mes"), "{msg}");
        // A bad value names its key and value.
        let (line, msg) = line_of(&CHILD_REPORT.replace("misses=2", "misses=two"));
        assert!(
            line == 4 && msg.contains("misses") && msg.contains("`two`"),
            "{msg}"
        );
        // Truncated: the tail of the file never arrived.
        let truncated: String = CHILD_REPORT
            .lines()
            .take(5)
            .map(|l| format!("{l}\n"))
            .collect();
        let (line, msg) = line_of(&truncated);
        assert!(line == 0 && msg.contains("missing required key"), "{msg}");
        // Bad hex: no prefix, and a non-hex digit.
        for bad in ["fingerprint=00ff", "fingerprint=0xfg"] {
            let (line, msg) = line_of(&CHILD_REPORT.replace("fingerprint=0x00000000000000ff", bad));
            assert!(line == 2 && msg.contains("fingerprint"), "{msg}");
        }
    }

    #[test]
    fn child_reports_read_what_the_daemon_writes() {
        let sc = scenario::by_name("tiny").unwrap().with_links(1);
        let ep = LoopbackHub::endpoints(1).remove(0);
        let node = LinkNode::new(ep, NodeConfig::new(sc, 3))
            .unwrap()
            .run()
            .unwrap();
        let child = parse_child_report(&netd::render_report(&node)).unwrap();
        assert_eq!(
            (child.link, child.fingerprint),
            (node.link, node.fingerprint)
        );
        assert_eq!(child.misses, node.misses);
    }
}
