//! Criterion timing of the DESIGN.md ablation configurations (the *result*
//! tables — deliveries and deficiency per configuration — come from the
//! `ablations` binary; these benches track the simulation cost of each
//! variant).

use criterion::{criterion_group, criterion_main, Criterion};
use rtmac::mac::{BatchedDpEngine, DpConfig, MacTiming};
use rtmac::phy::{channel::Bernoulli, PhyProfile};
use rtmac::sim::{Nanos, SeedStream};
use std::hint::black_box;

fn run_dp(phy: PhyProfile, swap_pairs: usize, iters: usize) -> u64 {
    let timing = MacTiming::new(phy, Nanos::from_millis(20), 1500);
    let mut engine = BatchedDpEngine::new(DpConfig::new(timing).with_swap_pairs(swap_pairs), 20);
    let mut channel = Bernoulli::new(vec![0.7; 20]).unwrap();
    let mut rng = SeedStream::new(5).rng(0);
    let arrivals = vec![3u32; 20];
    let mu = vec![0.5f64; 20];
    let mut total = 0;
    for _ in 0..iters {
        total += engine
            .step(&arrivals, &mu, &mut channel, &mut rng)
            .outcome
            .total_deliveries();
    }
    total
}

fn bench_slot_width(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_slot_width");
    g.sample_size(10);
    g.bench_function("slots_9us_80211a", |b| {
        b.iter(|| black_box(run_dp(PhyProfile::ieee80211a(), 1, 5)))
    });
    g.bench_function("slots_800ns_wifi_nano", |b| {
        b.iter(|| black_box(run_dp(PhyProfile::wifi_nano(), 1, 5)))
    });
    g.finish();
}

fn bench_swap_pairs(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_swap_pairs");
    g.sample_size(10);
    for pairs in [0usize, 1, 3, 6] {
        g.bench_function(&format!("pairs_{pairs}"), |b| {
            b.iter(|| black_box(run_dp(PhyProfile::ieee80211a(), pairs, 5)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_slot_width, bench_swap_pairs);
criterion_main!(benches);
