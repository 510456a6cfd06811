//! Zero-allocation regression guard for the DP interval kernel.
//!
//! The engine's contract is that *stepping* never touches the heap: every
//! buffer (believer table, sense board, candidate pools, the reusable
//! report, the fault layer's holder index) is sized at construction or on
//! the first interval and reused. This test installs a counting global
//! allocator, warms the engine, then asserts that further intervals perform
//! exactly zero heap allocations — fault-free, and in the degraded mode.
//! The counter is process-wide, so both cases run in one test: a second
//! test thread's start-up would land in the measured window.
//!
//! Trace mode is exempt from the contract (trace buffers legitimately grow
//! on the first traced intervals), so the engine under test runs untraced —
//! matching the benchmark configuration.

use alloctrack::CountingAllocator;
use rand::Rng;
use rtmac_mac::{BatchedDpEngine, ChurnEvent, DpConfig, MacTiming, RecoveryConfig};
use rtmac_phy::channel::Bernoulli;
use rtmac_phy::fault::{BurstSensing, ChurnProcess, FaultModel, HiddenMatrix};
use rtmac_phy::PhyProfile;
use rtmac_sim::{Nanos, SeedStream};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

#[test]
fn batched_step_performs_zero_heap_allocations() {
    const N: usize = 256;
    let timing = MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_millis(20), 1500);
    let config = DpConfig::new(timing).with_swap_pairs(3);
    let mut engine = BatchedDpEngine::new(config, N);
    let mut channel = Bernoulli::new(vec![0.8; N]).unwrap();
    let seeds = SeedStream::new(2018);
    let mut rng = seeds.rng(0);
    let mut arrival_rng = seeds.rng(1);

    let mut arrivals = vec![0u32; N];
    let mu = vec![0.5f64; N];

    // Warm-up: let lazy one-time costs (if any) land before measuring.
    for _ in 0..5 {
        for a in arrivals.iter_mut() {
            *a = arrival_rng.random_range(0..=3);
        }
        let _ = engine.step(&arrivals, &mu, &mut channel, &mut rng);
    }

    let before = alloctrack::allocations();
    for _ in 0..100 {
        for a in arrivals.iter_mut() {
            *a = arrival_rng.random_range(0..=3);
        }
        let report = engine.step(&arrivals, &mu, &mut channel, &mut rng);
        // Keep the optimizer honest without allocating.
        assert!(report.outcome.deliveries.len() == N);
    }
    let after = alloctrack::allocations();

    assert_eq!(
        after - before,
        0,
        "batched DP stepping allocated {} times over 100 intervals; \
         the interval kernel must be allocation-free",
        after - before
    );
    degraded_step_performs_zero_heap_allocations();
}

/// The fault-layer case of [`batched_step_performs_zero_heap_allocations`].
fn degraded_step_performs_zero_heap_allocations() {
    const N: usize = 64;
    let timing = MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_millis(2), 100);
    let config = DpConfig::new(timing).with_swap_pairs(2);
    let seeds = SeedStream::new(2018);
    // i.i.d. plus bursty sensing, a hidden pair and Poisson churn: every
    // fault process draws and the beliefs desynchronize and collide.
    let mut engine = BatchedDpEngine::new(config, N)
        .with_fault_model(FaultModel::symmetric(0.05, seeds.rng(3)).with_burst(
            N,
            BurstSensing::new(0.05, 0.2, 0.4, 0.4),
            seeds.rng(5),
        ))
        .with_hidden(HiddenMatrix::new(N).with_hidden(1, 0))
        .with_churn_process(ChurnProcess::new(N).with_poisson(0.01, 8.0, seeds.rng(4)))
        .with_recovery(RecoveryConfig::new().with_adaptive_miss_limit(2, 32));
    let mut channel = Bernoulli::new(vec![0.8; N]).unwrap();
    let mut rng = seeds.rng(0);
    let mut arrival_rng = seeds.rng(1);
    let mut arrivals = vec![0u32; N];
    let mu = vec![0.5f64; N];
    let mut events: Vec<ChurnEvent> = Vec::with_capacity(N);

    for _ in 0..5 {
        for a in arrivals.iter_mut() {
            *a = arrival_rng.random_range(0..=2);
        }
        let _ = engine.step(&arrivals, &mu, &mut channel, &mut rng);
        events.clear();
        engine.drain_churn_events(&mut events);
    }

    let before = alloctrack::allocations();
    let mut collisions = 0;
    for _ in 0..100 {
        for a in arrivals.iter_mut() {
            *a = arrival_rng.random_range(0..=2);
        }
        collisions += engine
            .step(&arrivals, &mu, &mut channel, &mut rng)
            .outcome
            .collisions;
        events.clear();
        engine.drain_churn_events(&mut events);
    }
    let after = alloctrack::allocations();

    let stats = engine.stats();
    assert!(stats.divergences > 0 && stats.fallbacks > 0 && collisions > 0);
    assert_eq!(
        after - before,
        0,
        "degraded DP stepping allocated {} times over 100 intervals; \
         the fault layer must be allocation-free too",
        after - before
    );
}
