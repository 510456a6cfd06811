//! `emul-loopback-2`: the lockstep transport. `run_emulation` drives two
//! `LinkNode` threads over the in-memory `LoopbackHub` for the `control10`
//! workload cut to two links.
//!
//! This is the one workload where `rtmac-net` does most of the work: the
//! codec, the fan-out and the lockstep wait. Two links keep the node
//! threads within the box's two cores; at 100 links the threads would
//! measure the OS scheduler instead.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use rtmac::scenario::{self, Scenario};
use rtmac_net::{
    run_emulation, sim_trace, EmulationConfig, LinkNode, LoopbackHub, NodeConfig, NodeReport,
    SimTrace,
};

use crate::clock::Stopwatch;
use crate::report::Outcome;
use crate::shims::{TimedTransport, TransportStats};
use crate::stats::{micros, Samples};
use crate::{time_setup, time_setups};

/// Links (and node threads).
pub const LINKS: usize = 2;

/// Lockstep rounds per emulation: long enough that thread start-up and
/// the handshake stay a small share of a call, short enough for well over
/// a hundred calls per run.
pub const ROUNDS: usize = 5_000;

/// The workload's scenario.
///
/// # Panics
///
/// Panics if the `control10` registry entry is gone.
#[must_use]
pub fn workload_scenario(seed: u64) -> Scenario {
    scenario::by_name("control10")
        .expect("control10 is a registered workload")
        .with_links(LINKS)
        .with_seed(seed)
}

fn check_run(out: &mut Outcome, sim: &SimTrace, fingerprint: u64, report: &rtmac::RunReport) {
    out.record_op(fingerprint == sim.fingerprint, || {
        format!(
            "fingerprint {fingerprint:#018x} differs from sim_trace's {:#018x}",
            sim.fingerprint
        )
    });
    out.record_op(*report == sim.report, || {
        "the emulated RunReport differs from the simulator's".into()
    });
}

/// The untraced run.
///
/// # Errors
///
/// Fails when the scenario does not build or a percentile lacks samples.
pub fn measure(seed: u64, seconds: Duration) -> Result<Outcome, String> {
    let sc = workload_scenario(seed);
    let mut out = Outcome::default();
    // A zero-interval emulation: thread start-up, replica builds and the
    // handshake, without a round.
    let empty = EmulationConfig::new(sc.clone(), 0);
    let setup = || run_emulation(&empty).map(drop).map_err(|e| e.to_string());
    let mut setups = vec![time_setup(setup)?];
    let sim = sim_trace(&sc, ROUNDS).map_err(|e| e.to_string())?;
    let cfg = EmulationConfig::new(sc, ROUNDS);

    let (mut per_round, mut means) = (Vec::new(), Vec::new());
    let mut misses = 0u64;
    let started = Stopwatch::start();
    while started.elapsed() < seconds {
        setups.push(time_setup(setup)?);
        let t = Stopwatch::start();
        let result = run_emulation(&cfg);
        let wall = t.elapsed();
        match result {
            Ok(report) => {
                check_run(&mut out, &sim, report.fingerprint, &report.run);
                per_round.push(micros(wall) / ROUNDS as f64);
                means.push(micros(report.mean_interval));
                misses += report.misses;
            }
            Err(e) => out.record_op(false, || format!("emulation failed: {e}")),
        }
    }
    let calls = Samples::new(per_round);
    eprintln!(
        "emul-loopback-2: {} emulations of {ROUNDS} rounds on {LINKS} node threads; \
         {misses} deadline misses",
        calls.len()
    );
    out.record_metric(
        "link_intervals_per_s",
        LINKS as f64 * 1e6 / calls.median()?,
        "1/s",
    );
    out.record_metric("step_p50_us", calls.median()?, "us");
    out.record_metric("round_mean_us", Samples::new(means).median()?, "us");
    out.record_metric("setup_s", Samples::new(setups).median()?, "s");
    Ok(out)
}

/// Runs two `LinkNode`s over shimmed loopback endpoints.
fn shimmed_emulation(
    sc: &Scenario,
    sink: &Arc<Mutex<Vec<TransportStats>>>,
) -> Vec<Result<NodeReport, String>> {
    std::thread::scope(|scope| {
        LoopbackHub::endpoints(sc.links)
            .into_iter()
            .map(|ep| {
                let transport = TimedTransport::new(ep, Arc::clone(sink));
                let cfg = NodeConfig::new(sc.clone(), ROUNDS);
                scope.spawn(move || {
                    LinkNode::new(transport, cfg)
                        .and_then(LinkNode::run)
                        .map_err(|e| e.to_string())
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("node thread panicked".into()))
            })
            .collect()
    })
}

/// The traced run: shimmed and plain emulations alternate, so both see the
/// same box drift.
///
/// # Errors
///
/// As [`measure`].
pub fn measure_traced(seed: u64, seconds: Duration) -> Result<Outcome, String> {
    let sc = workload_scenario(seed);
    let mut out = Outcome::default();
    let first = Stopwatch::start();
    drop(sc.network().map_err(|e| e.to_string())?);
    let first_build = first.elapsed();
    let builds = time_setups(|| {
        for _ in 0..LINKS {
            drop(sc.network().map_err(|e| e.to_string())?);
        }
        Ok(())
    })?;
    let sim = sim_trace(&sc, ROUNDS).map_err(|e| e.to_string())?;
    let cfg = EmulationConfig::new(sc.clone(), ROUNDS);
    let sink = Arc::new(Mutex::new(Vec::new()));

    let (mut plain_means, mut shim_means) = (Vec::new(), Vec::new());
    let mut misses = 0u64;
    let started = Stopwatch::start();
    while started.elapsed() < seconds {
        for result in shimmed_emulation(&sc, &sink) {
            match result {
                Ok(node) => {
                    check_run(&mut out, &sim, node.fingerprint, &node.report);
                    shim_means.push(micros(node.mean_interval));
                }
                Err(e) => out.record_op(false, || format!("shimmed node failed: {e}")),
            }
        }
        match run_emulation(&cfg) {
            Ok(report) => {
                check_run(&mut out, &sim, report.fingerprint, &report.run);
                plain_means.push(micros(report.mean_interval));
                misses += report.misses;
            }
            Err(e) => out.record_op(false, || format!("emulation failed: {e}")),
        }
    }

    let stats = std::mem::take(&mut *sink.lock().map_err(|_| "stats sink poisoned")?);
    let node_rounds = (stats.len() * ROUNDS) as f64;
    let per_round = |f: fn(&TransportStats) -> f64| stats.iter().map(f).sum::<f64>() / node_rounds;
    let broadcast_us = per_round(|s| micros(s.broadcast));
    let recv_us = per_round(|s| micros(s.recv));
    let rounds = Samples::new(stats.iter().flat_map(|s| s.rounds_us.clone()).collect());
    let shim_mean = Samples::new(shim_means).mean().unwrap_or(0.0);
    let plain_mean = Samples::new(plain_means).mean().unwrap_or(0.0);
    eprintln!(
        "emul-loopback-2 traced: {} shimmed node runs, {} round samples",
        stats.len(),
        rounds.len()
    );
    out.record_layer("net.transport.broadcast_us", broadcast_us);
    out.record_layer("net.transport.recv_wait_us", recv_us);
    out.record_layer(
        "net.transport.frames_sent_per_round",
        per_round(|s| s.frames_sent as f64),
    );
    out.record_layer(
        "net.transport.frames_recv_per_round",
        per_round(|s| s.frames_recv as f64),
    );
    out.record_layer("net.node.compute_us", shim_mean - broadcast_us - recv_us);
    out.record_layer("net.node.round_p50_us", rounds.median()?);
    out.record_layer("net.node.round_p99_us", rounds.percentile(99.0)?);
    out.record_layer("net.node.deadline_misses", misses as f64);
    out.record_layer("scenario.build_ms", builds.median()? * 1e3);
    out.record_layer("scenario.first_build_ms", first_build.as_secs_f64() * 1e3);
    out.record_layer("trace.overhead_pct", (shim_mean / plain_mean - 1.0) * 100.0);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GOLDEN_SEED;

    #[test]
    fn shims_are_transparent() {
        let sc = workload_scenario(GOLDEN_SEED).with_links(3);
        let sim = sim_trace(&sc, ROUNDS).unwrap();
        let plain = run_emulation(&EmulationConfig::new(sc.clone(), ROUNDS)).unwrap();
        let sink = Arc::new(Mutex::new(Vec::new()));
        let nodes = shimmed_emulation(&sc, &sink);
        assert_eq!(nodes.len(), 3);
        for node in nodes {
            let node = node.unwrap();
            assert_eq!(node.fingerprint, plain.fingerprint);
            assert_eq!(node.report, plain.run);
        }
        assert_eq!(plain.fingerprint, sim.fingerprint);
        let stats = sink.lock().unwrap();
        assert_eq!(stats.len(), 3);
        for s in stats.iter() {
            // One activity frame per round plus at least one beacon; each
            // peer's frames arrive once on the lossless hub.
            assert!(s.frames_sent > ROUNDS as u64);
            assert!(s.frames_recv >= 2 * ROUNDS as u64);
            assert_eq!(s.rounds_us.len(), ROUNDS - 1);
        }
    }
}
