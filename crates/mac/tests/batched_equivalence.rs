//! Pinning for the DP interval engine.
//!
//! Two layers:
//!
//! * golden tests pinning a fingerprint of every [`DpIntervalReport`] and
//!   σ over hundreds of intervals at the benchmark seed 2018, one per
//!   protocol regime, so a silent semantic change breaks loudly;
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
    draw_nonadjacent_candidates, BatchedDpEngine, DpConfig, IntervalOutcome, MacTiming, PairCoins,
};
use rtmac_phy::channel::Bernoulli;
use rtmac_phy::PhyProfile;
use rtmac_sim::{Nanos, SeedStream};

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
