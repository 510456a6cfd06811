//! Pinning for the DP interval engine.
//!
//! Three layers:
//!
//! * golden tests pinning a fingerprint of every [`DpIntervalReport`] and
//!   σ over hundreds of intervals at the benchmark seed 2018, one per
//!   protocol regime, so a silent semantic change breaks loudly;
//! * degraded-mode goldens (`golden_degraded_*`) pinning every report,
//!   belief vector and churn event, then the fault counters and R2 limits,
//!   under sensing faults, churn, hidden terminals and corrupted beliefs;
//! * a proptest sweeping link counts, swap-pair counts, deadlines,
//!   payloads, channel reliabilities and arrival patterns, differential
//!   against the per-device [`ReferenceNetwork`] with the candidates and
//!   coins injected exactly.
//!
//! [`DpIntervalReport`]: rtmac_mac::DpIntervalReport

use proptest::prelude::*;
use rand::Rng;
use rtmac_mac::reference::ReferenceNetwork;
use rtmac_mac::{
    draw_nonadjacent_candidates, BatchedDpEngine, ChurnEvent, DpConfig, IntervalOutcome, MacTiming,
    PairCoins, RecoveryConfig,
};
use rtmac_model::LinkId;
use rtmac_phy::channel::Bernoulli;
use rtmac_phy::fault::{BurstSensing, ChurnProcess, ChurnSchedule, FaultModel, HiddenMatrix};
use rtmac_phy::PhyProfile;
use rtmac_sim::{Nanos, SeedStream, SimRng};

/// FNV-1a over a byte stream; stable across platforms.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    let mut h = hash;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Drives the engine over `intervals` with seeded arrivals and μ, and
/// returns a fingerprint of every report and σ.
fn drive(
    config: &DpConfig,
    n: usize,
    seed: u64,
    intervals: usize,
    success: f64,
    max_arrivals: u32,
) -> u64 {
    let mut engine = BatchedDpEngine::new(config.clone(), n);
    let mut channel = Bernoulli::new(vec![success; n]).unwrap();
    let seeds = SeedStream::new(seed);
    let mut rng = seeds.rng(0);
    let mut arrival_rng = seeds.rng(1);
    let mut mu_rng = seeds.rng(2);
    let mut arrivals = vec![0u32; n];
    let mut mu = vec![0.5f64; n];
    let mut hash = FNV_OFFSET;
    for _ in 0..intervals {
        for a in arrivals.iter_mut() {
            *a = arrival_rng.random_range(0..=max_arrivals);
        }
        for m in mu.iter_mut() {
            *m = mu_rng.random_range(0.05..0.95);
        }
        let report = engine.step(&arrivals, &mu, &mut channel, &mut rng);
        hash = fnv1a(hash, format!("{report:?}").as_bytes());
        hash = fnv1a(hash, format!("{}", engine.sigma()).as_bytes());
    }
    hash
}

/// The golden trace: 20 video links (the fig. 3 shape), traced, at the
/// benchmark seed. The constant pins the *decision trace itself*, the
/// behaviour the committed bench_results figures were produced with.
#[test]
fn golden_trace_fingerprint_at_seed_2018() {
    let timing = MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_millis(20), 1500);
    let config = DpConfig::new(timing).with_trace(true);
    let hash = drive(&config, 20, 2018, 300, 0.9, 3);
    assert_eq!(
        hash, 0x9A17_F84D_1E38_09CB,
        "DP decision trace changed: if intentional, re-pin this fingerprint \
         and regenerate the bench_results goldens"
    );
}

/// Control-loop shape: short 2 ms deadline, 100 B payloads, two pairs.
#[test]
fn golden_control_shape_matches() {
    let timing = MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_millis(2), 100);
    let config = DpConfig::new(timing).with_swap_pairs(2).with_trace(true);
    assert_eq!(drive(&config, 10, 2018, 300, 0.7, 2), 0x1A6C_FDE6_5404_A19A);
}

/// Deadline so tight that data frames never fit: the Remark-4 concede
/// path and empty-claim frames dominate.
#[test]
fn golden_concede_pressure_matches() {
    let timing = MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_micros(200), 1500);
    let config = DpConfig::new(timing).with_trace(true);
    assert_eq!(drive(&config, 6, 2018, 400, 0.9, 1), 0x6005_6622_EC82_B1D1);
}

/// Saturated large-ish N: the walk stops at the deadline long before
/// exhausting claimants, exercising the idle-gap stop arithmetic.
#[test]
fn golden_saturated_n200_matches() {
    let timing = MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_millis(20), 1500);
    let config = DpConfig::new(timing);
    assert_eq!(drive(&config, 200, 2018, 30, 0.8, 4), 0xDCB7_F255_CE13_F857);
}

/// One degraded-mode golden: the engine's shape, its fault layer and
/// the driving workload of [`drive_degraded`].
struct Degraded {
    n: usize,
    timing: MacTiming,
    pairs: usize,
    /// Builds the sensing-fault model from the flip lane (3) and the
    /// Gilbert–Elliott state lane (5).
    fault: fn(usize, SimRng, SimRng) -> FaultModel,
    /// Builds the churn process from the churn lane (4), if any.
    churn: Option<fn(usize, SimRng) -> ChurnProcess>,
    hidden: &'static [(usize, usize)],
    recovery: RecoveryConfig,
    beliefs: Option<&'static [usize]>,
    /// `(link, first, end)`: the link is blocked for intervals `first..end`.
    block: Option<(usize, u64, u64)>,
    /// Interval at which sensing faults stop.
    heal: Option<u64>,
    success: f64,
    max_arrivals: u32,
    intervals: u64,
}

/// Drives the degraded mode at seed 2018 and returns a fingerprint of
/// every report, every belief vector and every drained churn event, then
/// of the final fault counters and R2 limits.
fn drive_degraded(spec: &Degraded) -> u64 {
    let n = spec.n;
    let seeds = SeedStream::new(2018);
    let mut rng = seeds.rng(0);
    let mut arrival_rng = seeds.rng(1);
    let mut mu_rng = seeds.rng(2);
    let config = DpConfig::new(spec.timing.clone()).with_swap_pairs(spec.pairs);
    let mut engine = BatchedDpEngine::new(config, n)
        .with_fault_model((spec.fault)(n, seeds.rng(3), seeds.rng(5)))
        .with_recovery(spec.recovery);
    if let Some(churn) = spec.churn {
        engine = engine.with_churn_process(churn(n, seeds.rng(4)));
    }
    if !spec.hidden.is_empty() {
        let mut matrix = HiddenMatrix::new(n);
        for &(listener, transmitter) in spec.hidden {
            matrix.hide(listener, transmitter);
        }
        engine = engine.with_hidden(matrix);
    }
    if let Some(beliefs) = spec.beliefs {
        engine.set_beliefs(beliefs.to_vec());
    }
    let mut channel = Bernoulli::new(vec![spec.success; n]).unwrap();
    let mut arrivals = vec![0u32; n];
    let mut mu = vec![0.5f64; n];
    let mut events: Vec<ChurnEvent> = Vec::new();
    let mut hash = FNV_OFFSET;
    for k in 0..spec.intervals {
        if spec.heal == Some(k) {
            engine.set_fault_model(FaultModel::none());
        }
        if let Some((link, first, end)) = spec.block {
            engine.set_blocked(link, (first..end).contains(&k));
        }
        for a in arrivals.iter_mut() {
            *a = arrival_rng.random_range(0..=spec.max_arrivals);
        }
        for m in mu.iter_mut() {
            *m = mu_rng.random_range(0.05..0.95);
        }
        let report = engine.step(&arrivals, &mu, &mut channel, &mut rng);
        hash = fnv1a(hash, format!("{report:?}").as_bytes());
        hash = fnv1a(hash, format!("{:?}", engine.beliefs()).as_bytes());
        events.clear();
        engine.drain_churn_events(&mut events);
        hash = fnv1a(hash, format!("{events:?}").as_bytes());
    }
    hash = fnv1a(hash, format!("{:?}", engine.stats()).as_bytes());
    fnv1a(hash, format!("{:?}", engine.r2_limits()).as_bytes())
}

fn no_faults(_: usize, _: SimRng, _: SimRng) -> FaultModel {
    FaultModel::none()
}

fn bursty(eps: f64) -> impl Fn(usize, SimRng, SimRng) -> FaultModel {
    move |n, flips, states| {
        FaultModel::symmetric(eps, flips).with_burst(
            n,
            BurstSensing::new(0.05, 0.2, 0.4, 0.4),
            states,
        )
    }
}

fn poisson_churn(n: usize, rng: SimRng) -> ChurnProcess {
    ChurnProcess::new(n).with_poisson(0.01, 8.0, rng)
}

fn control_timing() -> MacTiming {
    MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_millis(2), 100)
}

fn video_timing() -> MacTiming {
    MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_millis(20), 1500)
}

/// Bursty sensing, Poisson churn, two hidden pairs and adaptive R2 on the
/// control shape; sensing heals at interval 600.
#[test]
fn golden_degraded_storm_matches() {
    let spec = Degraded {
        n: 10,
        timing: control_timing(),
        pairs: 2,
        fault: |n, flips, states| bursty(0.02)(n, flips, states),
        churn: Some(poisson_churn),
        hidden: &[(1, 0), (4, 7)],
        recovery: RecoveryConfig::new().with_adaptive_miss_limit(2, 32),
        beliefs: None,
        block: None,
        heal: Some(600),
        success: 0.8,
        max_arrivals: 2,
        intervals: 2000,
    };
    assert_eq!(drive_degraded(&spec), 0x7D51_49A7_063C_4A9B);
}

/// Perfect sensing from a corrupted belief multiset (duplicates and
/// holes), with one link administratively blocked for 50 intervals.
#[test]
fn golden_degraded_corrupted_matches() {
    let spec = Degraded {
        n: 8,
        timing: video_timing(),
        pairs: 1,
        fault: no_faults,
        churn: None,
        hidden: &[],
        recovery: RecoveryConfig::new().with_miss_limit(3),
        beliefs: Some(&[1, 1, 3, 3, 5, 8, 8, 2]),
        block: Some((5, 100, 150)),
        heal: None,
        success: 0.9,
        max_arrivals: 3,
        intervals: 1500,
    };
    assert_eq!(drive_degraded(&spec), 0xEBF4_7167_1C0D_472C);
}

/// Asymmetric sensing faults under the Remark-4 concede pressure of a
/// 200 µs deadline, with one scripted crash.
#[test]
fn golden_degraded_concede_matches() {
    let spec = Degraded {
        n: 6,
        timing: MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_micros(200), 1500),
        pairs: 1,
        fault: |_, flips, _| FaultModel::new(0.1, 0.05, flips),
        churn: Some(|n, _| {
            ChurnProcess::new(n).with_event(ChurnSchedule::new(LinkId::new(2), 50, 20))
        }),
        hidden: &[],
        recovery: RecoveryConfig::new(),
        beliefs: None,
        block: None,
        heal: None,
        success: 0.9,
        max_arrivals: 1,
        intervals: 400,
    };
    assert_eq!(drive_degraded(&spec), 0xB269_28D0_16DB_74D0);
}

/// 200 links, three pairs: a flash crowd joins at interval 10 on top of
/// Poisson churn, with three hidden pairs.
#[test]
fn golden_degraded_n200_matches() {
    let spec = Degraded {
        n: 200,
        timing: video_timing(),
        pairs: 3,
        fault: |_, flips, _| FaultModel::symmetric(0.01, flips),
        churn: Some(|n, rng| {
            ChurnProcess::new(n)
                .with_flash_crowd(150, 20, 10)
                .with_poisson(0.001, 5.0, rng)
        }),
        hidden: &[(1, 0), (3, 2), (10, 11)],
        recovery: RecoveryConfig::new(),
        beliefs: None,
        block: None,
        heal: None,
        success: 0.8,
        max_arrivals: 4,
        intervals: 60,
    };
    assert_eq!(drive_degraded(&spec), 0x933D_AC74_BCB1_99D6);
}

/// Heavier bursty sensing that heals at interval 600: the recovery and
/// desync-epoch accounting after the noise stops.
#[test]
fn golden_degraded_heal_matches() {
    let spec = Degraded {
        n: 10,
        timing: control_timing(),
        pairs: 2,
        fault: |n, flips, states| bursty(0.05)(n, flips, states),
        churn: Some(poisson_churn),
        hidden: &[],
        recovery: RecoveryConfig::new().with_adaptive_miss_limit(2, 32),
        beliefs: None,
        block: None,
        heal: Some(600),
        success: 0.8,
        max_arrivals: 1,
        intervals: 3000,
    };
    assert_eq!(drive_degraded(&spec), 0xA453_9555_74A1_0B83);
}

/// Drives the engine and the reference network through identical
/// arrivals, injected candidates and coins, and channel randomness;
/// fails on the first divergence of the outcome or σ.
fn differential(
    config: &DpConfig,
    n: usize,
    seed: u64,
    intervals: usize,
    success: f64,
    max_arrivals: u32,
) -> Result<(), TestCaseError> {
    let mut engine = BatchedDpEngine::new(config.clone(), n);
    let mut reference = ReferenceNetwork::new(config.timing().clone(), n);
    let mut ch_engine = Bernoulli::new(vec![success; n]).unwrap();
    let mut ch_reference = Bernoulli::new(vec![success; n]).unwrap();
    let seeds = SeedStream::new(seed);
    let mut rng_engine = seeds.rng(0);
    let mut rng_reference = seeds.rng(0);
    let mut meta_rng = seeds.rng(1);
    for k in 0..intervals {
        let arrivals: Vec<u32> = (0..n)
            .map(|_| meta_rng.random_range(0..=max_arrivals))
            .collect();
        let candidates = draw_nonadjacent_candidates(n, config.swap_pairs(), &mut meta_rng);
        let xi_up: Vec<bool> = (0..n).map(|_| meta_rng.random_bool(0.5)).collect();
        let coins: Vec<PairCoins> = candidates
            .iter()
            .map(|&c| PairCoins {
                hi_up: xi_up[engine.sigma().link_with_priority(c).index()],
                lo_up: xi_up[engine.sigma().link_with_priority(c + 1).index()],
            })
            .collect();
        let fast = engine.step_with_coins(
            &arrivals,
            &candidates,
            &coins,
            &mut ch_engine,
            &mut rng_engine,
        );
        let slow = reference.run_interval(
            &arrivals,
            &candidates,
            &xi_up,
            &mut ch_reference,
            &mut rng_reference,
        );
        // The event loop schedules one more idle boundary after the last
        // frame than the walk processes; every other field must agree.
        let slow = IntervalOutcome {
            idle_slots: fast.outcome.idle_slots,
            ..slow
        };
        prop_assert_eq!(
            &fast.outcome,
            &slow,
            "outcome diverged at interval {} (n = {}, seed = {})",
            k,
            n,
            seed
        );
        prop_assert_eq!(
            engine.sigma(),
            reference.sigma(),
            "sigma diverged at interval {} (n = {}, seed = {})",
            k,
            n,
            seed
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The engine agrees with the per-device reference across the
    /// configuration space.
    #[test]
    fn prop_batched_matches_reference(
        n in 2usize..14,
        swap_pairs in 0usize..4,
        deadline_idx in 0usize..4,
        payload_idx in 0usize..3,
        success in 0.3f64..1.0,
        trace in 0u8..2,
        seed in 0u64..1_000_000,
        max_arrivals in 0u32..4,
    ) {
        let deadline_us = [200u64, 500, 2_000, 20_000][deadline_idx];
        let payload = [100u32, 500, 1500][payload_idx];
        let timing = MacTiming::new(
            PhyProfile::ieee80211a(),
            Nanos::from_micros(deadline_us),
            payload,
        );
        let config = DpConfig::new(timing)
            .with_swap_pairs(swap_pairs)
            .with_trace(trace == 1);
        differential(&config, n, seed, 12, success, max_arrivals)?;
    }
}
