//! `sim-video-10k`: the symmetric video network at N = 10⁴ on the batched
//! engine, stepped with `Network::step` on one thread.
//!
//! At this size the per-link loops of an interval dominate: Eq. 14's coin
//! `μ_n` for every link, the traffic sample, and the debt settle. The
//! untraced run times every `Network::step` call, in chunks; the traced run
//! recomposes the step from its public parts and interleaves it with a
//! plain and a shimmed `Network`, so all three see the same box drift.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

use rtmac::mac::{BatchedDpEngine, DpConfig, IntervalOutcome, MacTiming};
use rtmac::model::influence::DebtInfluence;
use rtmac::model::metrics::DeficiencySeries;
use rtmac::model::{DebtLedger, LinkId, Permutation, Requirements};
use rtmac::phy::channel::Bernoulli;
use rtmac::phy::PhyProfile;
use rtmac::scenario::{self, EngineSpec, PolicySpec, Scenario, TrafficSpec};
use rtmac::sim::{Nanos, SeedStream, SimRng};
use rtmac::traffic::{ArrivalProcess, BurstUniform};
use rtmac::{Network, PolicyKind};

use crate::clock::Stopwatch;
use crate::report::Outcome;
use crate::shims::{CountingInfluence, CountingLoss, Probe, TimedArrivals};
use crate::stats::{micros, Samples};
use crate::{time_setup, time_setups, GOLDEN_SEED};

/// Links in the network.
pub const LINKS: usize = 10_000;

/// Untimed intervals before measuring: lets the debts leave their all-zero
/// start and the allocator settle.
const WARMUP: usize = 1_000;

/// Steps per chunk of the untraced run (one sample of the median and mean
/// step), and per block of the traced run's interleaving.
const CHUNK: usize = 100;

/// FNV-1a digest of the debt vector after the warm-up at seed 2018.
const GOLDEN_WARMUP_DIGEST: u64 = 0x16b5_e3d3_d0fa_bf35;

/// The workload's scenario.
#[must_use]
pub fn workload_scenario(links: usize, seed: u64) -> Scenario {
    scenario::video(links, 0.55, 0.9, seed).with_engine(EngineSpec::Batched)
}

/// FNV-1a over the debts' bit patterns: equal digests mean bit-equal
/// debts.
#[must_use]
pub fn debt_digest(debts: &[f64]) -> u64 {
    debts.iter().fold(rtmac_net::FNV_OFFSET, |h, d| {
        rtmac_net::fnv1a(h, &d.to_bits().to_le_bytes())
    })
}

/// Eq. 14 exactly as `rtmac::eq14_mu` computes it. The program inlines
/// that function into its μ loop; called from this crate it would not
/// inline and would cost ~2 ns per link (~20 µs per interval here) that the
/// program never pays. The `R > 0` assertion is left out: `R` comes from a
/// validated `PolicySpec`.
#[inline]
fn eq14(influence: &dyn DebtInfluence, r: f64, d_plus: f64, p_n: f64) -> f64 {
    let w = (influence.eval(d_plus) * p_n).exp();
    let mu = if w.is_infinite() { 1.0 } else { w / (r + w) };
    mu.clamp(f64::MIN_POSITIVE, 1.0 - f64::EPSILON)
}

/// Wall time spent in each stage of a recomposed step.
#[derive(Debug, Default, Clone, Copy)]
pub struct Phases {
    /// `ArrivalProcess::sample`.
    pub traffic: Duration,
    /// Eq. 14 `μ_n` for every link.
    pub mu: Duration,
    /// `BatchedDpEngine::step`.
    pub kernel: Duration,
    /// `DebtLedger::settle_interval`.
    pub settle: Duration,
    /// `DeficiencySeries::record`.
    pub metrics: Duration,
}

impl Phases {
    fn phases_total(&self) -> Duration {
        self.traffic + self.mu + self.kernel + self.settle + self.metrics
    }
}

/// `Network::step` for a fault-free DB-DP scenario on the batched engine,
/// rebuilt from the public parts the network wires together, with a span
/// around each stage. It must track the real network bit for bit; the
/// traced run checks that it does.
pub struct Recomposed {
    traffic: Box<dyn ArrivalProcess>,
    arrival_rng: SimRng,
    protocol_rng: SimRng,
    influence: Box<dyn DebtInfluence>,
    r: f64,
    p: Vec<f64>,
    mu: Vec<f64>,
    arrivals: Vec<u32>,
    engine: BatchedDpEngine,
    channel: Bernoulli,
    debts: DebtLedger,
    deficiency: DeficiencySeries,
    /// Time per stage, summed over every step so far.
    pub phases: Phases,
}

impl Recomposed {
    /// Wires the parts of `sc` as `NetworkBuilder::build` does.
    ///
    /// # Errors
    ///
    /// Fails for scenarios outside this mirror's reach (other policies or
    /// traffic, faults, tracking, admission) or invalid parameters.
    pub fn new(sc: &Scenario) -> Result<Self, String> {
        let PolicySpec::DbDp {
            influence,
            r,
            swap_pairs,
        } = sc.policy
        else {
            return Err("the recomposition mirrors DB-DP only".into());
        };
        if sc.engine != EngineSpec::Batched
            || sc.fault.is_some()
            || sc.track.is_some()
            || sc.admission.is_some()
        {
            return Err("the recomposition mirrors the plain batched path only".into());
        }
        let n = sc.links;
        let TrafficSpec::Burst { alpha, burst_max } = &sc.traffic else {
            return Err("the recomposition mirrors burst traffic only".into());
        };
        let traffic: Box<dyn ArrivalProcess> =
            Box::new(BurstUniform::new(alpha.expand(n), *burst_max).map_err(|e| e.to_string())?);
        let lambda: Vec<f64> = (0..n).map(|l| traffic.mean(LinkId::new(l))).collect();
        let requirements = Requirements::from_delivery_ratios(&lambda, &sc.ratio.expand(n))
            .map_err(|e| e.to_string())?;
        let p = sc.success.expand(n);
        let timing = MacTiming::new(
            PhyProfile::ieee80211a(),
            Nanos::from_micros(sc.deadline_us),
            sc.payload_bytes,
        );
        let seeds = SeedStream::new(sc.seed);
        Ok(Recomposed {
            traffic,
            arrival_rng: seeds.rng(1),
            protocol_rng: seeds.rng(2),
            influence: influence.boxed(),
            r,
            mu: vec![0.0; n],
            arrivals: Vec::with_capacity(n),
            engine: BatchedDpEngine::new(DpConfig::new(timing).with_swap_pairs(swap_pairs), n),
            channel: Bernoulli::new(p.clone()).map_err(|e| e.to_string())?,
            p,
            debts: DebtLedger::new(requirements),
            deficiency: DeficiencySeries::new(),
            phases: Phases::default(),
        })
    }

    /// One interval; returns its outcome's collision count.
    pub fn recomposed_step(&mut self) -> u64 {
        let t0 = Stopwatch::start();
        self.traffic
            .sample(&mut self.arrival_rng, &mut self.arrivals);
        let t1 = Stopwatch::start();
        for (n, mu) in self.mu.iter_mut().enumerate() {
            *mu = eq14(
                self.influence.as_ref(),
                self.r,
                self.debts.positive(LinkId::new(n)),
                self.p[n],
            );
        }
        let t2 = Stopwatch::start();
        let report = self.engine.step(
            &self.arrivals,
            &self.mu,
            &mut self.channel,
            &mut self.protocol_rng,
        );
        let t3 = Stopwatch::start();
        self.debts.settle_interval(&report.outcome.deliveries);
        let t4 = Stopwatch::start();
        self.deficiency.record(&self.debts);
        let t5 = Stopwatch::start();
        self.phases.traffic += t1.started_after(t0);
        self.phases.mu += t2.started_after(t1);
        self.phases.kernel += t3.started_after(t2);
        self.phases.settle += t4.started_after(t3);
        self.phases.metrics += t5.started_after(t4);
        report.outcome.collisions
    }

    /// The live debts.
    #[must_use]
    pub fn recomposed_debts(&self) -> &[f64] {
        self.debts.debts()
    }

    /// The per-interval total deficiency.
    #[must_use]
    pub fn recomposed_deficiency(&self) -> &[f64] {
        self.deficiency.as_slice()
    }

    /// The priority permutation.
    #[must_use]
    pub fn recomposed_sigma(&self) -> &Permutation {
        self.engine.sigma()
    }
}

/// The probes behind a shimmed network.
pub struct Shimmed {
    /// The network, built with every shim in place.
    pub net: Network,
    /// Times `ArrivalProcess::sample`.
    pub traffic: Arc<Probe>,
    /// Counts `DebtInfluence::eval`.
    pub influence: Arc<Probe>,
    /// Counts `LossModel::attempt`.
    pub channel: Arc<Probe>,
}

/// Builds `sc`'s network through `Scenario::to_builder` with the traffic,
/// influence and loss-model shims injected. Supports the DB-DP scenarios
/// with burst traffic this workload runs.
///
/// # Errors
///
/// Fails for other scenarios or invalid parameters.
pub fn shimmed(sc: &Scenario) -> Result<Shimmed, String> {
    let (
        PolicySpec::DbDp {
            influence,
            r,
            swap_pairs,
        },
        TrafficSpec::Burst { alpha, burst_max },
    ) = (sc.policy, &sc.traffic)
    else {
        return Err("shims are wired for DB-DP over burst traffic".into());
    };
    let n = sc.links;
    let probes = (
        Probe::new_shared(),
        Probe::new_shared(),
        Probe::new_shared(),
    );
    let traffic = BurstUniform::new(alpha.expand(n), *burst_max).map_err(|e| e.to_string())?;
    let channel = Bernoulli::new(sc.success.expand(n)).map_err(|e| e.to_string())?;
    let net = sc
        .to_builder()
        .traffic(Box::new(TimedArrivals::new(
            Box::new(traffic),
            Arc::clone(&probes.0),
        )))
        .policy(PolicyKind::db_dp_with(
            Box::new(CountingInfluence::new(
                influence.boxed(),
                Arc::clone(&probes.1),
            )),
            r,
            swap_pairs,
        ))
        .channel(Box::new(CountingLoss::new(
            Box::new(channel),
            Arc::clone(&probes.2),
        )))
        .build()
        .map_err(|e| e.to_string())?;
    Ok(Shimmed {
        net,
        traffic: probes.0,
        influence: probes.1,
        channel: probes.2,
    })
}

/// Whether `sigma` is a bijection onto the priorities `1..=n`.
fn is_permutation(sigma: &Permutation, n: usize) -> bool {
    let mut priorities = sigma.priorities().to_vec();
    priorities.sort_unstable();
    priorities.len() == n && priorities.iter().copied().eq(1..=n)
}

/// The run-level output checks: σ a permutation and every debt finite.
fn check_state(out: &mut Outcome, what: &str, sigma: Option<&Permutation>, debts: &[f64]) {
    out.record_op(
        sigma.is_some_and(|s| is_permutation(s, debts.len())),
        || {
            format!(
                "{what}: sigma is not a permutation of {} links",
                debts.len()
            )
        },
    );
    out.record_op(debts.iter().all(|d| d.is_finite()), || {
        format!("{what}: a debt is not finite")
    });
}

/// Steps the warm-up and, at the golden seed, checks the pinned digest.
fn warm_up(net: &mut Network, seed: u64, out: &mut Outcome) {
    for _ in 0..WARMUP {
        net.step();
    }
    if seed == GOLDEN_SEED {
        let digest = debt_digest(net.debts().debts());
        out.record_op(digest == GOLDEN_WARMUP_DIGEST, || {
            format!(
                "debt digest after {WARMUP} intervals is {digest:#018x}, \
                 pinned {GOLDEN_WARMUP_DIGEST:#018x}"
            )
        });
    }
}

fn step_op(out: &mut Outcome, outcome: &IntervalOutcome, interval: usize) {
    out.record_op(outcome.collisions == 0, || {
        format!(
            "interval {interval}: {} collision(s) under DB-DP",
            outcome.collisions
        )
    });
}

/// The untraced run.
///
/// # Errors
///
/// Fails when the scenario does not build or a percentile lacks samples.
pub fn measure(seed: u64, seconds: Duration) -> Result<Outcome, String> {
    let sc = workload_scenario(LINKS, seed);
    let mut out = Outcome::default();
    let build = || sc.network().map(drop).map_err(|e| e.to_string());
    let mut setups = vec![time_setup(build)?];
    let mut net = sc.network().map_err(|e| e.to_string())?;
    warm_up(&mut net, seed, &mut out);

    // Per chunk of CHUNK steps: the median step and the mean step (chunk
    // wall time ÷ CHUNK). Medians over chunks ride out host hiccups, and
    // memory stays flat however many chunks a faster program fits in.
    let mut chunk_steps = Vec::with_capacity(CHUNK);
    let (mut p50s, mut means) = (Vec::new(), Vec::new());
    let started = Stopwatch::start();
    while started.elapsed() < seconds {
        setups.push(time_setup(build)?);
        chunk_steps.clear();
        let chunk = Stopwatch::start();
        for _ in 0..CHUNK {
            let t = Stopwatch::start();
            let outcome = black_box(net.step());
            chunk_steps.push(micros(t.elapsed()));
            step_op(&mut out, &outcome, net.intervals());
        }
        means.push(micros(chunk.elapsed()) / CHUNK as f64);
        p50s.push(Samples::new(chunk_steps.clone()).median()?);
    }
    check_state(&mut out, "plain network", net.sigma(), net.debts().debts());

    eprintln!(
        "sim-video-10k: {} chunks of {CHUNK} timed steps of {LINKS} links after {WARMUP} \
         warm-up intervals",
        means.len()
    );
    let round_mean = Samples::new(means).median()?;
    out.record_metric(
        "link_intervals_per_s",
        LINKS as f64 * 1e6 / round_mean,
        "1/s",
    );
    out.record_metric("step_p50_us", Samples::new(p50s).median()?, "us");
    out.record_metric("round_mean_us", round_mean, "us");
    out.record_metric("setup_s", Samples::new(setups).median()?, "s");
    Ok(out)
}

/// The traced run: plain, recomposed and shimmed networks stepped in
/// interleaved blocks.
///
/// # Errors
///
/// As [`measure`].
pub fn measure_traced(seed: u64, seconds: Duration) -> Result<Outcome, String> {
    let sc = workload_scenario(LINKS, seed);
    let mut out = Outcome::default();
    let first = Stopwatch::start();
    let mut plain = sc.network().map_err(|e| e.to_string())?;
    let first_build = first.elapsed();
    let builds = time_setups(|| sc.network().map(drop).map_err(|e| e.to_string()))?;
    let mut rec = Recomposed::new(&sc)?;
    let mut shim = shimmed(&sc)?;

    warm_up(&mut plain, seed, &mut out);
    for _ in 0..WARMUP {
        rec.recomposed_step();
        shim.net.step();
    }
    rec.phases = Phases::default();
    let traffic_before = shim.traffic.busy_time();

    let (mut plain_us, mut shim_us) = (Vec::new(), Vec::new());
    let started = Stopwatch::start();
    let mut blocks = 0usize;
    while started.elapsed() < seconds {
        for _ in 0..CHUNK {
            let t = Stopwatch::start();
            let outcome = black_box(plain.step());
            plain_us.push(micros(t.elapsed()));
            step_op(&mut out, &outcome, plain.intervals());
        }
        for _ in 0..CHUNK {
            let collisions = rec.recomposed_step();
            out.record_op(collisions == 0, || {
                format!("a recomposed interval had {collisions} collision(s)")
            });
        }
        for _ in 0..CHUNK {
            let t = Stopwatch::start();
            let outcome = black_box(shim.net.step());
            shim_us.push(micros(t.elapsed()));
            step_op(&mut out, &outcome, shim.net.intervals());
        }
        blocks += 1;
    }
    let timed = (blocks * CHUNK) as f64;
    let total = (WARMUP + blocks * CHUNK) as f64;

    check_state(
        &mut out,
        "plain network",
        plain.sigma(),
        plain.debts().debts(),
    );
    check_state(
        &mut out,
        "recomposition",
        Some(rec.recomposed_sigma()),
        rec.recomposed_debts(),
    );
    let plain_report = plain.report();
    out.record_op(
        debt_digest(rec.recomposed_debts()) == debt_digest(plain.debts().debts()),
        || "the recomposition's final debts differ from Network::step's".into(),
    );
    out.record_op(
        rec.recomposed_deficiency() == plain_report.deficiency.as_slice(),
        || "the recomposition's deficiency series differs from Network::step's".into(),
    );
    out.record_op(shim.net.report() == plain_report, || {
        "the shimmed network's RunReport differs from the plain one".into()
    });

    let plain_steps = Samples::new(plain_us);
    let shim_steps = Samples::new(shim_us);
    let plain_mean = plain_steps.mean().unwrap_or(0.0);
    let per_step = |d: Duration| micros(d) / timed;
    let phases = rec.phases;
    eprintln!(
        "sim-video-10k traced: {} interleaved steps per variant, {} links",
        plain_steps.len(),
        LINKS
    );
    out.record_layer(
        "traffic.sample_us",
        per_step(shim.traffic.busy_time() - traffic_before),
    );
    out.record_layer(
        "policy.mu_evals_per_interval",
        shim.influence.call_count() as f64 / total,
    );
    out.record_layer("policy.mu_us", per_step(phases.mu));
    out.record_layer("mac.kernel_us", per_step(phases.kernel));
    out.record_layer("model.settle_us", per_step(phases.settle));
    out.record_layer("model.metrics_us", per_step(phases.metrics));
    out.record_layer(
        "mac.channel_attempts_per_interval",
        shim.channel.call_count() as f64 / total,
    );
    out.record_layer(
        "network.glue_us",
        plain_mean - per_step(phases.phases_total()),
    );
    out.record_layer("network.step_p90_us", plain_steps.percentile(90.0)?);
    out.record_layer("network.step_p99_us", plain_steps.percentile(99.0)?);
    out.record_layer("scenario.build_ms", builds.median()? * 1e3);
    out.record_layer("scenario.first_build_ms", first_build.as_secs_f64() * 1e3);
    out.record_layer(
        "trace.overhead_pct",
        (shim_steps.mean().unwrap_or(0.0) / plain_mean - 1.0) * 100.0,
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recomposition_equals_network_step() {
        let sc = workload_scenario(200, 7);
        let mut net = sc.network().unwrap();
        let mut rec = Recomposed::new(&sc).unwrap();
        for _ in 0..300 {
            net.step();
            rec.recomposed_step();
        }
        assert_eq!(
            debt_digest(rec.recomposed_debts()),
            debt_digest(net.debts().debts())
        );
        assert_eq!(rec.recomposed_debts(), net.debts().debts());
        assert_eq!(
            rec.recomposed_deficiency(),
            net.report().deficiency.as_slice()
        );
        assert_eq!(Some(rec.recomposed_sigma()), net.sigma());
        assert!(rec.phases.phases_total() > Duration::ZERO);
    }

    #[test]
    fn eq14_copy_matches_the_program() {
        let f = rtmac::model::influence::PaperLog::default();
        for d in [0.0, 0.5, 3.0, 1e3, 1e300, f64::MAX] {
            for p in [0.1, 0.7, 1.0] {
                assert_eq!(
                    eq14(&f, 10.0, d, p).to_bits(),
                    rtmac::eq14_mu(&f, 10.0, d, p).to_bits()
                );
            }
        }
    }

    #[test]
    fn recomposition_refuses_what_it_does_not_mirror() {
        assert!(
            Recomposed::new(&workload_scenario(20, 1).with_engine(EngineSpec::Timeline)).is_err()
        );
        assert!(Recomposed::new(&workload_scenario(20, 1).with_policy(PolicySpec::Ldf)).is_err());
    }

    #[test]
    fn shims_are_transparent() {
        let sc = workload_scenario(300, 11);
        let mut plain = sc.network().unwrap();
        let mut shim = shimmed(&sc).unwrap();
        let a = plain.run(200);
        let b = shim.net.run(200);
        assert_eq!(a, b);
        assert_eq!(shim.influence.call_count(), 300 * 200);
        assert!(shim.channel.call_count() > 0);
        assert_eq!(shim.traffic.call_count(), 200);
    }

    #[test]
    fn mu_is_evaluated_for_every_link_every_interval() {
        // The figure the lazy-μ change must move: today Eq. 14 runs once
        // per link per interval, 10 000 times at this workload's size.
        let mut shim = shimmed(&workload_scenario(LINKS, GOLDEN_SEED)).unwrap();
        shim.net.run(3);
        assert_eq!(shim.influence.call_count(), 3 * 10_000);
    }

    #[test]
    fn golden_digest_after_warmup() {
        let mut net = workload_scenario(LINKS, GOLDEN_SEED).network().unwrap();
        let mut out = Outcome::default();
        warm_up(&mut net, GOLDEN_SEED, &mut out);
        assert!(out.problems().is_empty(), "{:?}", out.problems());
    }

    #[test]
    fn permutation_check() {
        assert!(is_permutation(&Permutation::identity(5), 5));
        assert!(!is_permutation(&Permutation::identity(5), 6));
    }
}
