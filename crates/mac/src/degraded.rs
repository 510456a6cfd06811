//! The degraded mode of the DP kernel: Algorithm 2 over possibly
//! corrupted local priority state, with injected carrier-sensing faults,
//! link churn, and a self-stabilizing recovery rule.
//!
//! Perfect sensing keeps every link's local view identical, so the
//! fault-free [`BatchedDpEngine`](crate::BatchedDpEngine) holds one global
//! permutation σ. Once the sensing oracle can lie (Eqs. 7–8 observed
//! through a [`FaultModel`]), the two sides of a drawn pair can commit
//! *different* moves, and from then on each link only has a private
//! **belief** about its own priority — an arbitrary multiset over `1..=N`.
//! The engine's fault layer ([`FaultLayer`]) holds those beliefs; the
//! kernel runs the same deterministic backoff construction from each
//! link's own belief and, where beliefs collide on one counter, *models*
//! the collision (see the kernel's module docs).
//!
//! Recovery is a self-stabilizing re-ranking rule:
//!
//! * **R1 (collision fallback)** — a link that observes a collision in its
//!   own claimed backoff slot falls back to the lowest priority `N`.
//! * **R2 (miss fallback)** — a link that plays the lower side of a drawn
//!   pair for [`RecoveryConfig::miss_limit`] consecutive eligible intervals
//!   without ever hearing a claim at the adjacent upper priority falls back
//!   to `N`. The limit is either a fixed constant or the adaptive
//!   exponential-backoff rule of [`MissLimit::Adaptive`], which scales the
//!   starting limit with `⌈log₂(N + 1)⌉` and doubles a link's personal
//!   limit each time its own R2 fires.
//!
//! Beyond i.i.d. sensing flips and scripted crashes, the layer drives the
//! full correlated-fault surface of `rtmac_phy::fault`: Gilbert–Elliott
//! bursty sensing (advanced once per interval via
//! `FaultModel::begin_interval`), asymmetric hidden-terminal deafness
//! ([`HiddenMatrix`] — per-listener ground-truth busy signals and claim
//! hearing), and a general [`ChurnProcess`] (scripted events, flash
//! crowds, Poisson crash/revive). Crash/revive transitions are exposed as
//! [`ChurnEvent`]s through
//! [`BatchedDpEngine::drain_churn_events`](crate::BatchedDpEngine::drain_churn_events),
//! and the admission layer can administratively exclude links with
//! [`BatchedDpEngine::set_blocked`](crate::BatchedDpEngine::set_blocked).
//!
//! A fallen-back link re-enters through the protocol's existing
//! empty-packet claim mechanism (Step 2): the next time it is drawn as a
//! candidate it claims its slot even with an empty queue. The reconvergence
//! proptests in this module show that from *any* corrupted belief multiset
//! the system returns to a bijection within a bounded number of intervals.
//!
//! With [`FaultModel::none`], no churn, no hidden terminals and a bijective
//! belief vector, the layer replays the fault-free engine's randomness
//! draw-for-draw, so the interval reports are byte-identical — a property
//! pinned by proptest here and by the fig3/fig9 goldens end-to-end.

use rtmac_model::{LinkId, Permutation};
use rtmac_phy::fault::{ChurnProcess, FaultModel, HiddenMatrix};
use rtmac_phy::SenseBoard;

use crate::batched::{Believer, Holders, NO_LINK};

/// The R2 miss-limit policy: how many consecutive eligible intervals a lo
/// believer tolerates without hearing the adjacent upper claim before
/// falling back to priority `N`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MissLimit {
    /// A constant limit, the original rule.
    Fixed(u32),
    /// Exponential-backoff re-ranking: each link starts at
    /// `max(base, ⌈log₂(N + 1)⌉)` (larger networks legitimately wait longer
    /// between adjacent claims), *doubles* its personal limit each time its
    /// own R2 fires (capped at `cap`, so a link on a genuinely broken
    /// neighborhood stops thrashing the priority floor), and *halves* it
    /// back toward the initial value every time the adjacent claim is
    /// heard again.
    Adaptive {
        /// Floor of the per-link limit before the N-scaling is applied.
        base: u32,
        /// Hard ceiling of the per-link limit under backoff.
        cap: u32,
    },
}

/// Configuration of the self-stabilizing recovery rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryConfig {
    collision_fallback: bool,
    miss_fallback: bool,
    miss_limit: MissLimit,
}

impl RecoveryConfig {
    /// The default recovery rule: both fallbacks enabled, fixed miss
    /// limit 3.
    #[must_use]
    pub fn new() -> Self {
        RecoveryConfig {
            collision_fallback: true,
            miss_fallback: true,
            miss_limit: MissLimit::Fixed(3),
        }
    }

    /// Recovery switched off entirely — the ablation used by the
    /// `rtmac-verify` mutation fixture to show that *without* the rule a
    /// corrupted belief multiset never reconverges.
    #[must_use]
    pub fn disabled() -> Self {
        RecoveryConfig {
            collision_fallback: false,
            miss_fallback: false,
            miss_limit: MissLimit::Fixed(u32::MAX),
        }
    }

    /// Enables/disables the R1 collision fallback.
    #[must_use]
    pub fn with_collision_fallback(mut self, on: bool) -> Self {
        self.collision_fallback = on;
        self
    }

    /// Enables/disables the R2 miss fallback.
    #[must_use]
    pub fn with_miss_fallback(mut self, on: bool) -> Self {
        self.miss_fallback = on;
        self
    }

    /// Sets a fixed number of consecutive unheard-claim intervals tolerated
    /// before the R2 fallback fires.
    ///
    /// # Panics
    ///
    /// Panics if `limit == 0`.
    #[must_use]
    pub fn with_miss_limit(mut self, limit: u32) -> Self {
        assert!(limit > 0, "miss limit must be at least one interval");
        self.miss_limit = MissLimit::Fixed(limit);
        self
    }

    /// Switches R2 to the adaptive exponential-backoff rule (see
    /// [`MissLimit::Adaptive`]).
    ///
    /// # Panics
    ///
    /// Panics if `base == 0` or `cap < base`.
    #[must_use]
    pub fn with_adaptive_miss_limit(mut self, base: u32, cap: u32) -> Self {
        assert!(base > 0, "miss limit base must be at least one interval");
        assert!(cap >= base, "miss limit cap {cap} below base {base}");
        self.miss_limit = MissLimit::Adaptive { base, cap };
        self
    }

    /// Whether the R1 collision fallback is enabled.
    #[must_use]
    pub fn collision_fallback(&self) -> bool {
        self.collision_fallback
    }

    /// Whether the R2 miss fallback is enabled.
    #[must_use]
    pub fn miss_fallback(&self) -> bool {
        self.miss_fallback
    }

    /// The R2 miss-limit policy.
    #[must_use]
    pub fn miss_limit(&self) -> MissLimit {
        self.miss_limit
    }

    /// The per-link miss limit a fresh engine over `n_links` links starts
    /// with under this policy.
    #[must_use]
    pub fn initial_miss_limit(&self, n_links: usize) -> u32 {
        match self.miss_limit {
            MissLimit::Fixed(limit) => limit,
            MissLimit::Adaptive { base, cap } => {
                // ⌈log₂(N + 1)⌉ without floats: bit length of N.
                let scale = (usize::BITS - n_links.leading_zeros()).max(1);
                base.max(scale).min(cap)
            }
        }
    }
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// Cumulative fault/recovery counters of a degraded-mode run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Drawn pairs whose two sides committed inconsistent moves
    /// ([`TraceEvent::Divergence`](crate::TraceEvent::Divergence)).
    pub divergences: u64,
    /// Links that fell back to the lowest priority (R1 + R2).
    pub fallbacks: u64,
    /// Intervals that *ended* with a non-bijective belief multiset.
    pub desync_intervals: u64,
    /// Completed desync → bijection recoveries.
    pub reconvergences: u64,
    /// Total intervals spent desynchronized across all completed
    /// recoveries (divide by [`FaultStats::reconvergences`] for the mean).
    pub reconverge_interval_sum: u64,
    /// Carrier-sense observations flipped by the [`FaultModel`].
    pub sensing_flips: u64,
    /// Per-burst time-to-reconverge histogram: bucket `k` counts completed
    /// recoveries whose desync length (in intervals) fell in
    /// `[2^k, 2^(k+1))`; the last bucket absorbs everything longer.
    pub reconverge_hist: [u64; 16],
}

impl FaultStats {
    /// Mean number of intervals from first divergence to restored
    /// bijection, over completed recoveries. `None` if none completed.
    #[must_use]
    pub fn mean_time_to_reconverge(&self) -> Option<f64> {
        if self.reconvergences == 0 {
            None
        } else {
            Some(self.reconverge_interval_sum as f64 / self.reconvergences as f64)
        }
    }

    /// The [`FaultStats::reconverge_hist`] bucket a desync burst of
    /// `intervals` intervals lands in (log₂ bucketing, saturating at the
    /// last bucket).
    #[must_use]
    pub fn reconverge_bucket(intervals: u64) -> usize {
        let len = intervals.max(1);
        ((u64::BITS - 1 - len.leading_zeros()) as usize).min(15)
    }
}

/// One link crash or revival observed by the engine's churn process —
/// drained by the admission layer via
/// [`BatchedDpEngine::drain_churn_events`](crate::BatchedDpEngine::drain_churn_events).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnEvent {
    /// The link that changed state.
    pub link: usize,
    /// `true` when the link came up (joined/revived), `false` when it went
    /// down (crashed).
    pub up: bool,
    /// The interval at which the transition took effect.
    pub interval: u64,
}

/// Per-link fault state.
#[derive(Debug, Clone, Copy, Default)]
struct LinkFault {
    /// Consecutive eligible intervals without hearing the adjacent upper
    /// claim (R2).
    missed: u32,
    /// Administratively blocked by the admission layer.
    blocked: bool,
    /// Down through churn in the previous interval (edge detection).
    was_down: bool,
    /// Crashed or blocked this interval: the link neither transmits,
    /// senses, nor updates its belief.
    down: bool,
    /// Sent a frame that collided this interval.
    collided: bool,
}

/// The fault layer of a [`BatchedDpEngine`](crate::BatchedDpEngine): the
/// per-link beliefs and their holder index, the fault processes, and the
/// recovery and desync-epoch bookkeeping. The kernel asks it who is up
/// and who believes what, lets it filter the sense checks, and hands it
/// each pair's moves.
#[derive(Debug, Clone)]
pub(crate) struct FaultLayer {
    pub(crate) model: FaultModel,
    pub(crate) churn: Option<ChurnProcess>,
    pub(crate) hidden: Option<HiddenMatrix>,
    recovery: RecoveryConfig,
    /// `beliefs[n]`: the priority link `n` believes it holds.
    pub(crate) beliefs: Vec<usize>,
    /// Per-link R2 miss limit currently in force (constant under
    /// [`MissLimit::Fixed`], backed off per link under
    /// [`MissLimit::Adaptive`]).
    pub(crate) r2_limit: Vec<u32>,
    links: Vec<LinkFault>,
    /// The holder index over the links that are up this interval: the
    /// holders of priority `p` are
    /// `holder_links[holder_start[p]..holder_start[p + 1]]`, in link order.
    holder_start: Vec<usize>,
    holder_links: Vec<usize>,
    interval: u64,
    /// Whether the beliefs form a bijection (σ is then exact).
    pub(crate) bijective: bool,
    desync_since: Option<u64>,
    stats: FaultStats,
    /// Flips folded in from replaced fault models.
    flips_base: u64,
    /// Crash/revive transitions not yet drained by the admission layer.
    churn_events: Vec<ChurnEvent>,
}

impl FaultLayer {
    /// A layer with perfect sensing, no churn, no hidden terminals and the
    /// default [`RecoveryConfig`], starting from the bijection `beliefs`.
    pub(crate) fn new(beliefs: &[usize]) -> Self {
        let n = beliefs.len();
        let recovery = RecoveryConfig::new();
        FaultLayer {
            model: FaultModel::none(),
            churn: None,
            hidden: None,
            recovery,
            beliefs: beliefs.to_vec(),
            r2_limit: vec![recovery.initial_miss_limit(n); n],
            links: vec![LinkFault::default(); n],
            holder_start: Vec::new(),
            holder_links: Vec::new(),
            interval: 0,
            bijective: true,
            desync_since: None,
            stats: FaultStats::default(),
            flips_base: 0,
            churn_events: Vec::new(),
        }
    }

    pub(crate) fn set_recovery(&mut self, recovery: RecoveryConfig) {
        self.recovery = recovery;
        let initial = recovery.initial_miss_limit(self.beliefs.len());
        self.r2_limit.fill(initial);
    }

    pub(crate) fn set_model(&mut self, model: FaultModel) {
        self.flips_base = self.flips_base.saturating_add(self.model.injected());
        self.model = model;
    }

    pub(crate) fn set_blocked(&mut self, link: usize, blocked: bool) {
        self.links[link].blocked = blocked;
    }

    pub(crate) fn is_blocked(&self, link: usize) -> bool {
        self.links.get(link).is_some_and(|l| l.blocked)
    }

    pub(crate) fn is_down(&self, link: usize) -> bool {
        self.links[link].down
    }

    pub(crate) fn drain_churn_events(&mut self, out: &mut Vec<ChurnEvent>) {
        out.append(&mut self.churn_events);
    }

    /// Replaces the beliefs (already range-checked) and clears every R2
    /// miss count.
    pub(crate) fn set_beliefs(&mut self, beliefs: Vec<usize>, bijective: bool) {
        self.beliefs = beliefs;
        self.bijective = bijective;
        for l in &mut self.links {
            l.missed = 0;
        }
    }

    pub(crate) fn stats(&self) -> FaultStats {
        let mut s = self.stats;
        s.sensing_flips = self.flips_base.saturating_add(self.model.injected());
        s
    }

    pub(crate) fn holders(&self) -> Holders<'_> {
        Holders::Beliefs {
            start: &self.holder_start,
            links: &self.holder_links,
        }
    }

    /// Interval start: advances the fault processes exactly once (both are
    /// zero-draw no-ops for i.i.d./none sensing and scripted-only churn),
    /// records churn edges for the admission layer, decides who is down,
    /// and indexes the beliefs of the links that are up.
    pub(crate) fn begin_interval(&mut self) {
        let k = self.interval;
        let n = self.beliefs.len();
        self.model.begin_interval();
        if let Some(c) = &mut self.churn {
            c.advance_to(k);
        }
        self.churn_events.reserve(n);
        let start = &mut self.holder_start;
        start.clear();
        start.resize(n + 2, 0);
        for (link, lf) in self.links.iter_mut().enumerate() {
            let churned = self.churn.as_ref().is_some_and(|c| c.is_down(link, k));
            if churned != lf.was_down {
                lf.was_down = churned;
                self.churn_events.push(ChurnEvent {
                    link,
                    up: !churned,
                    interval: k,
                });
            }
            lf.down = lf.blocked || churned;
            lf.collided = false;
            if !lf.down {
                start[self.beliefs[link] + 1] += 1;
            }
        }
        // Counting sort: prefix sums give each priority's first slot; the
        // fill advances every start to the next priority's, so shift back.
        for p in 1..n + 2 {
            start[p] += start[p - 1];
        }
        self.holder_links.clear();
        self.holder_links.reserve(n);
        self.holder_links.resize(start[n + 1], NO_LINK);
        for (link, lf) in self.links.iter().enumerate() {
            if !lf.down {
                let b = self.beliefs[link];
                self.holder_links[start[b]] = link;
                start[b] += 1;
            }
        }
        start.copy_within(0..=n, 1);
        start[0] = 0;
    }

    /// What `link` hears at boundary `at`: the ground truth — without the
    /// frames hidden from it — filtered through the fault model. `sense`
    /// draws once per call either way, so the fault stream stays aligned
    /// with the matrix-free run.
    pub(crate) fn sense(
        &mut self,
        link: usize,
        at: u64,
        board: &SenseBoard,
        starts: &[(u64, usize)],
    ) -> bool {
        let busy = match &self.hidden {
            Some(h) if !h.is_trivial() => {
                let first = starts.partition_point(|&(b, _)| b < at);
                starts[first..]
                    .iter()
                    .take_while(|&&(b, _)| b == at)
                    .any(|&(_, tx)| !h.is_hidden(link, tx))
            }
            _ => board.busy_at(at as usize),
        };
        self.model.sense(LinkId::new(link), busy)
    }

    /// Commits each believer's move of one pair. Returns whether the pair
    /// diverged — its two sides moved inconsistently — and counts it.
    pub(crate) fn commit(&mut self, pair: &[Believer]) -> bool {
        let (mut hi, mut lo) = (0, 0);
        for bl in pair.iter().filter(|bl| bl.moves) {
            if bl.hi {
                self.beliefs[bl.link] += 1;
                hi += 1;
            } else {
                self.beliefs[bl.link] -= 1;
                self.links[bl.link].missed = 0;
                lo += 1;
            }
        }
        if hi != lo {
            self.stats.divergences += 1;
        }
        hi != lo
    }

    /// Interval end: R1 (a collision in an owned slot) and R2 (the miss
    /// limit on the adjacent upper claim) both fall back to the lowest
    /// priority, and re-entry happens through the empty-packet claim
    /// mechanism. Then the desync-epoch accounting, and σ follows the
    /// beliefs whenever they form a bijection.
    pub(crate) fn end_interval(
        &mut self,
        sigma: &mut Permutation,
        pair_start: &[usize],
        believers: &[Believer],
        pair_heard: &[usize],
        starts: &[(u64, usize)],
    ) {
        let n = self.beliefs.len();
        let recovery = self.recovery;
        // A boundary with several starts is a collision.
        let collisions = starts.chunk_by(|a, b| a.0 == b.0).filter(|c| c.len() > 1);
        for &(_, link) in collisions.flatten() {
            self.links[link].collided = true;
            if recovery.collision_fallback {
                self.links[link].missed = 0;
                self.fall_back(link);
            }
        }
        if recovery.miss_fallback {
            let initial = recovery.initial_miss_limit(n);
            for (j, pair) in pair_start.windows(2).enumerate() {
                for bl in &believers[pair[0]..pair[1]] {
                    let link = bl.link;
                    // Eligible: the link played lo of a drawn pair, did not
                    // move up itself, and R1 did not already send it down.
                    if bl.hi
                        || bl.moves
                        || (self.links[link].collided && recovery.collision_fallback)
                    {
                        continue;
                    }
                    // A claim only counts if this listener can physically
                    // hear the claimant — hidden-terminal deafness is ground
                    // truth, not noise, so it bypasses the fault model.
                    let claimant = pair_heard[j];
                    let heard = claimant != NO_LINK
                        && !self
                            .hidden
                            .as_ref()
                            .is_some_and(|h| h.is_hidden(link, claimant));
                    if heard {
                        self.links[link].missed = 0;
                        // Adaptive R2: a heard claim is evidence the
                        // neighborhood works again — halve the backed-off
                        // limit toward its initial value.
                        if let MissLimit::Adaptive { .. } = recovery.miss_limit {
                            self.r2_limit[link] = (self.r2_limit[link] / 2).max(initial);
                        }
                        continue;
                    }
                    let missed = &mut self.links[link].missed;
                    *missed = missed.saturating_add(1);
                    if *missed >= self.r2_limit[link] {
                        *missed = 0;
                        // Adaptive R2: this link just re-ranked; back off its
                        // limit exponentially so a persistently deaf
                        // neighborhood stops thrashing the priority floor.
                        if let MissLimit::Adaptive { cap, .. } = recovery.miss_limit {
                            self.r2_limit[link] = self.r2_limit[link].saturating_mul(2).min(cap);
                        }
                        self.fall_back(link);
                    }
                }
            }
        }

        #[cfg(debug_assertions)]
        for (link, &b) in self.beliefs.iter().enumerate() {
            debug_assert!(
                (1..=n).contains(&b),
                "belief {b} of link {link} escaped 1..={n}"
            );
        }

        // Desync epoch accounting: an epoch opens at the end of the first
        // interval whose beliefs are not a bijection and closes when
        // bijectivity returns.
        let k = self.interval;
        self.bijective = sigma.assign_priorities(&self.beliefs).is_ok();
        if self.bijective {
            if let Some(since) = self.desync_since.take() {
                let burst = k.saturating_sub(since).max(1);
                let stats = &mut self.stats;
                stats.reconvergences += 1;
                stats.reconverge_interval_sum = stats.reconverge_interval_sum.saturating_add(burst);
                stats.reconverge_hist[FaultStats::reconverge_bucket(burst)] += 1;
            }
        } else {
            self.stats.desync_intervals += 1;
            self.desync_since.get_or_insert(k);
        }
        self.interval = k + 1;
    }

    /// Sends `link` to the lowest priority `N`.
    fn fall_back(&mut self, link: usize) {
        let n = self.beliefs.len();
        if self.beliefs[link] != n {
            self.beliefs[link] = n;
            self.stats.fallbacks += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BatchedDpEngine, DpConfig, MacTiming, TraceEvent};
    use proptest::prelude::*;
    use rand::Rng;
    use rtmac_phy::channel::Bernoulli;
    use rtmac_phy::fault::{BurstSensing, ChurnSchedule};
    use rtmac_phy::PhyProfile;
    use rtmac_sim::{Nanos, SeedStream};

    fn timing() -> MacTiming {
        MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_millis(2), 100)
    }

    fn reliable(n: usize) -> Bernoulli {
        Bernoulli::reliable(n)
    }

    /// A `ChurnProcess` with one scripted crash of `link` at `at` for
    /// `down` intervals.
    fn crash(n: usize, link: usize, at: u64, down: u64) -> ChurnProcess {
        ChurnProcess::new(n).with_event(ChurnSchedule::new(LinkId::new(link), at, down))
    }

    /// An engine carrying a fault layer that injects nothing: perfect
    /// sensing, no churn, no hidden terminals.
    fn inert_layer(config: DpConfig, n: usize) -> BatchedDpEngine {
        BatchedDpEngine::new(config, n).with_fault_model(FaultModel::none())
    }

    #[test]
    fn zero_faults_identity_beliefs_match_pristine_engine() {
        let n = 5;
        let mut pristine = BatchedDpEngine::new(DpConfig::new(timing()).with_trace(true), n);
        let mut faulty = inert_layer(DpConfig::new(timing()).with_trace(true), n);
        assert!(faulty.is_degraded() && !pristine.is_degraded());
        let mut rng_a = SeedStream::new(42).rng(2);
        let mut rng_b = SeedStream::new(42).rng(2);
        let mut ch_a = reliable(n);
        let mut ch_b = reliable(n);
        let arrivals = [2, 0, 1, 3, 0];
        let mu = [0.4; 5];
        for k in 0..200 {
            let a = pristine.step(&arrivals, &mu, &mut ch_a, &mut rng_a);
            let b = faulty.step(&arrivals, &mu, &mut ch_b, &mut rng_b);
            assert_eq!(a, b, "interval {k} diverged");
            assert_eq!(pristine.sigma().priorities(), faulty.beliefs());
            assert_eq!(pristine.sigma(), faulty.sigma());
        }
        // Draw for draw: both decision lanes stand at the same position.
        assert_eq!(rng_a.random::<u64>(), rng_b.random::<u64>());
        let s = faulty.stats();
        assert_eq!(s, FaultStats::default());
        assert!(faulty.is_bijective());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_none_fault_is_byte_identical_to_pristine(
            seed in 0u64..1_000,
            n in 2usize..7,
            pairs in 0usize..3,
            p in 0.3f64..1.0,
        ) {
            let cfg = || DpConfig::new(timing()).with_swap_pairs(pairs).with_trace(true);
            let mut pristine = BatchedDpEngine::new(cfg(), n);
            let mut faulty = inert_layer(cfg(), n);
            let mut rng_a = SeedStream::new(seed).rng(2);
            let mut rng_b = SeedStream::new(seed).rng(2);
            let mut arr_rng = SeedStream::new(seed).rng(1);
            let mut ch_a = Bernoulli::new(vec![p; n]).unwrap();
            let mut ch_b = Bernoulli::new(vec![p; n]).unwrap();
            let mut arrivals = vec![0u32; n];
            let mut mu = vec![0.0f64; n];
            for k in 0..40 {
                for a in arrivals.iter_mut() {
                    *a = arr_rng.random_range(0..3);
                }
                for m in mu.iter_mut() {
                    *m = arr_rng.random_range(1..100) as f64 / 100.0;
                }
                let a = pristine.step(&arrivals, &mu, &mut ch_a, &mut rng_a);
                let b = faulty.step(&arrivals, &mu, &mut ch_b, &mut rng_b);
                prop_assert_eq!(a, b, "interval {} diverged", k);
                prop_assert_eq!(pristine.sigma().priorities(), faulty.beliefs());
            }
            prop_assert_eq!(rng_a.random::<u64>(), rng_b.random::<u64>());
            prop_assert_eq!(faulty.stats(), FaultStats::default());
        }

        #[test]
        fn prop_recovery_restores_a_bijection(
            seed in 0u64..1_000,
            n in 2usize..7,
            raw in proptest::collection::vec(1usize..100, 2..7),
        ) {
            // An arbitrary corrupted multiset: duplicates and holes.
            let beliefs: Vec<usize> = (0..n).map(|i| raw[i % raw.len()] % n + 1).collect();
            let mut engine = BatchedDpEngine::new(DpConfig::new(timing()), n);
            engine.set_beliefs(beliefs);
            let mut rng = SeedStream::new(seed).rng(2);
            let mut channel = reliable(n);
            let arrivals = vec![1u32; n];
            let mu = vec![0.5f64; n];
            let mut healed_at = None;
            const BOUND: u64 = 1500;
            for k in 0..BOUND {
                let _ = engine.step(&arrivals, &mu, &mut channel, &mut rng);
                if engine.is_bijective() {
                    healed_at = Some(k);
                    break;
                }
            }
            prop_assert!(
                healed_at.is_some(),
                "beliefs {:?} never reconverged within {} intervals",
                engine.beliefs(), BOUND
            );
            // And bijectivity is absorbing without faults: it never breaks
            // again.
            for _ in 0..20 {
                let _ = engine.step(&arrivals, &mu, &mut channel, &mut rng);
                prop_assert!(engine.is_bijective());
            }
        }
    }

    #[test]
    fn sensing_faults_diverge_and_recovery_heals() {
        let n = 4;
        let mut engine = BatchedDpEngine::new(DpConfig::new(timing()).with_trace(true), n)
            .with_fault_model(FaultModel::symmetric(0.3, SeedStream::new(5).rng(3)));
        let mut rng = SeedStream::new(5).rng(2);
        let mut channel = reliable(n);
        let arrivals = [1u32; 4];
        let mu = [0.5f64; 4];
        let mut saw_divergence = false;
        for _ in 0..300 {
            let report = engine.step(&arrivals, &mu, &mut channel, &mut rng);
            saw_divergence |= report
                .trace
                .iter()
                .any(|e| matches!(e, TraceEvent::Divergence { .. }));
        }
        assert!(saw_divergence, "eps = 0.3 must desynchronize the views");
        let stats = engine.stats();
        assert!(stats.divergences > 0);
        assert!(stats.sensing_flips > 0);
        assert!(stats.desync_intervals > 0);
        // Switch the faults off: recovery must re-establish the bijection
        // and hold it.
        engine.set_fault_model(FaultModel::none());
        let mut healed = false;
        for _ in 0..400 {
            let _ = engine.step(&arrivals, &mu, &mut channel, &mut rng);
            if engine.is_bijective() {
                healed = true;
                break;
            }
        }
        assert!(healed, "recovery must reconverge once faults stop");
        let after = engine.stats();
        assert!(after.reconvergences > 0);
        assert!(after.mean_time_to_reconverge().is_some());
        // Flip counts from the replaced model were preserved: the none()
        // model injects nothing, so the count is frozen where it stood.
        assert_eq!(after.sensing_flips, stats.sensing_flips);
    }

    #[test]
    fn disabled_recovery_never_reconverges_from_a_duplicate() {
        // Both links believe they hold priority 1: without the fallback
        // rule they collide forever and the multiset stays corrupted.
        let n = 2;
        let mut engine = BatchedDpEngine::new(DpConfig::new(timing()), n)
            .with_recovery(RecoveryConfig::disabled());
        engine.set_beliefs(vec![1, 1]);
        let mut rng = SeedStream::new(11).rng(2);
        let mut channel = reliable(n);
        for _ in 0..300 {
            let _ = engine.step(&[1, 1], &[0.5, 0.5], &mut channel, &mut rng);
            assert!(!engine.is_bijective());
        }
        assert_eq!(engine.stats().fallbacks, 0);
        assert_eq!(engine.stats().reconvergences, 0);

        // The identical run with recovery enabled heals.
        let mut engine = BatchedDpEngine::new(DpConfig::new(timing()), n);
        engine.set_beliefs(vec![1, 1]);
        let mut rng = SeedStream::new(11).rng(2);
        let mut channel = reliable(n);
        let mut healed = false;
        for _ in 0..300 {
            let _ = engine.step(&[1, 1], &[0.5, 0.5], &mut channel, &mut rng);
            if engine.is_bijective() {
                healed = true;
                break;
            }
        }
        assert!(healed, "default recovery must fix the duplicate");
    }

    #[test]
    fn collisions_are_modeled_not_asserted() {
        // Two links in the same backoff slot transmit, both fail, and the
        // medium is busy for one airtime — no debug assertion fires.
        let n = 3;
        let mut engine = BatchedDpEngine::new(DpConfig::new(timing()).with_trace(true), n)
            .with_recovery(RecoveryConfig::disabled());
        engine.set_beliefs(vec![2, 2, 3]); // hole at 1, duplicate at 2
        let mut rng = SeedStream::new(3).rng(2);
        let mut channel = reliable(n);
        // No candidates: the duplicate pair shares β = 1 deterministically.
        let report =
            engine.step_with_candidates(&[1, 1, 1], &[0.5; 3], &[], &mut channel, &mut rng);
        assert_eq!(report.outcome.collisions, 1, "one collision episode");
        assert_eq!(report.outcome.deliveries[0], 0);
        assert_eq!(report.outcome.deliveries[1], 0);
        assert_eq!(report.outcome.deliveries[2], 1, "link 2 is unaffected");
        assert_eq!(report.outcome.attempts[0], 1);
        assert_eq!(report.outcome.attempts[1], 1);
        let collided_ends: Vec<_> = report
            .trace
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    TraceEvent::TxEnd {
                        delivered: false,
                        ..
                    }
                )
            })
            .collect();
        assert_eq!(collided_ends.len(), 2, "both colliding frames are lost");
    }

    #[test]
    fn collision_fallback_sends_both_duplicates_to_the_bottom() {
        let n = 3;
        let mut engine = BatchedDpEngine::new(DpConfig::new(timing()), n);
        engine.set_beliefs(vec![2, 2, 3]);
        let mut rng = SeedStream::new(3).rng(2);
        let mut channel = reliable(n);
        let _ = engine.step_with_candidates(&[1, 1, 1], &[0.5; 3], &[], &mut channel, &mut rng);
        // R1: both colliding links fall back to the lowest priority N = 3.
        assert_eq!(engine.beliefs()[0], 3);
        assert_eq!(engine.beliefs()[1], 3);
        assert_eq!(engine.stats().fallbacks, 2);
    }

    #[test]
    fn miss_fallback_fires_after_the_limit() {
        // Link 0 (belief 1) is crashed, so the lo side of pair C = 1 never
        // hears the adjacent claim; with μ ≈ 0 it never moves up either and
        // must fall back after exactly `miss_limit` eligible intervals.
        let n = 3;
        let mut engine = BatchedDpEngine::new(DpConfig::new(timing()), n)
            .with_churn_process(crash(n, 0, 0, 100))
            .with_recovery(RecoveryConfig::new().with_miss_limit(3));
        let mut rng = SeedStream::new(8).rng(2);
        let mut channel = reliable(n);
        let mu = [1e-9; 3];
        for k in 0..3 {
            assert_eq!(engine.beliefs()[1], 2, "no fallback before interval {k}");
            let _ = engine.step_with_candidates(&[1, 1, 1], &mu, &[1], &mut channel, &mut rng);
        }
        assert_eq!(engine.beliefs()[1], 3, "R2 fallback after 3 misses");
        assert_eq!(engine.stats().fallbacks, 1);
        // The crashed link's belief is frozen (stale σ).
        assert_eq!(engine.beliefs()[0], 1);
    }

    #[test]
    fn churn_crash_and_revive_with_stale_belief() {
        let n = 4;
        let mut engine =
            BatchedDpEngine::new(DpConfig::new(timing()), n).with_churn_process(crash(n, 2, 5, 10));
        let mut rng = SeedStream::new(21).rng(2);
        let mut channel = reliable(n);
        let arrivals = [1u32; 4];
        let mu = [0.5f64; 4];
        let mut down_deliveries = 0u64;
        let mut live_deliveries = 0u64;
        for k in 0..5 {
            let r = engine.step(&arrivals, &mu, &mut channel, &mut rng);
            assert_eq!(r.outcome.total_deliveries(), 4, "all up in interval {k}");
        }
        for _ in 5..15 {
            let r = engine.step(&arrivals, &mu, &mut channel, &mut rng);
            down_deliveries += r.outcome.deliveries[2];
            live_deliveries += r.outcome.total_deliveries();
        }
        assert_eq!(down_deliveries, 0, "a crashed link never transmits");
        // The other three links keep delivering around the hole (a stray
        // recovery collision may cost the odd packet, not the service).
        assert!(
            live_deliveries >= 25,
            "live links must keep working through the crash, got {live_deliveries}/30"
        );
        // After revival the link rejoins with whatever belief it held; the
        // run continues without panicking and reconverges to a bijection.
        let mut healed = false;
        for _ in 15..300 {
            let _ = engine.step(&arrivals, &mu, &mut channel, &mut rng);
            if engine.is_bijective() {
                healed = true;
            }
        }
        assert!(healed, "network heals after the churn event");
    }

    #[test]
    fn crashed_only_transmitter_leaves_the_boundary_idle() {
        // Regression for the empty-transmitter boundary: when the only
        // link that would have claimed a slot is crashed, the boundary is
        // an idle slot — `Medium::transmit` is never handed an empty
        // airtime slice and nothing panics.
        let n = 2;
        let mut engine =
            BatchedDpEngine::new(DpConfig::new(timing()), n).with_churn_process(crash(n, 0, 0, 5));
        let mut rng = SeedStream::new(2).rng(2);
        let mut channel = reliable(n);
        // Only the crashed link has traffic.
        let report = engine.step_with_candidates(&[3, 0], &[0.5, 0.5], &[], &mut channel, &mut rng);
        assert_eq!(report.outcome.total_attempts(), 0);
        assert_eq!(report.outcome.collisions, 0);
        assert_eq!(report.outcome.busy_time, Nanos::ZERO);
    }

    #[test]
    fn divergence_counter_matches_trace_events() {
        let n = 4;
        let mut engine = BatchedDpEngine::new(DpConfig::new(timing()).with_trace(true), n)
            .with_fault_model(FaultModel::symmetric(0.4, SeedStream::new(13).rng(3)));
        let mut rng = SeedStream::new(13).rng(2);
        let mut channel = reliable(n);
        let mut traced = 0u64;
        for _ in 0..200 {
            let report = engine.step(&[1; 4], &[0.5; 4], &mut channel, &mut rng);
            traced += report
                .trace
                .iter()
                .filter(|e| matches!(e, TraceEvent::Divergence { .. }))
                .count() as u64;
        }
        assert_eq!(engine.stats().divergences, traced);
        assert!(traced > 0);
    }

    #[test]
    #[should_panic(expected = "belief 5 of link 0 outside")]
    fn set_beliefs_rejects_out_of_range() {
        let mut engine = BatchedDpEngine::new(DpConfig::new(timing()), 4);
        engine.set_beliefs(vec![5, 1, 2, 3]);
    }

    #[test]
    fn adaptive_miss_limit_scales_and_backs_off() {
        // N = 3 ⇒ initial limit max(base = 1, ⌈log₂ 4⌉ = 2) = 2. With link
        // 0 crashed the lo side of pair C = 1 never hears the adjacent
        // claim: the first fallback fires after 2 misses, doubles the
        // link's personal limit to 4, and the next epoch takes 4 misses.
        let n = 3;
        let recovery = RecoveryConfig::new().with_adaptive_miss_limit(1, 8);
        assert_eq!(recovery.initial_miss_limit(n), 2);
        let mut engine = BatchedDpEngine::new(DpConfig::new(timing()), n)
            .with_churn_process(crash(n, 0, 0, 1000))
            .with_recovery(recovery);
        let mut rng = SeedStream::new(8).rng(2);
        let mut channel = reliable(n);
        let mu = [1e-9; 3];
        for k in 0..2 {
            assert_eq!(engine.beliefs()[1], 2, "no fallback before interval {k}");
            let _ = engine.step_with_candidates(&[1, 1, 1], &mu, &[1], &mut channel, &mut rng);
        }
        assert_eq!(engine.beliefs()[1], 3, "adaptive R2 fires after 2 misses");
        assert_eq!(engine.r2_limits()[1], 4, "limit doubled after the fire");
        // Second epoch: restore the belief and watch the backed-off limit
        // tolerate twice as many silent intervals.
        engine.set_beliefs(vec![1, 2, 3]);
        for k in 0..4 {
            assert_eq!(engine.beliefs()[1], 2, "no second fallback before miss {k}");
            let _ = engine.step_with_candidates(&[1, 1, 1], &mu, &[1], &mut channel, &mut rng);
        }
        assert_eq!(engine.beliefs()[1], 3, "second fire after 4 misses");
        assert_eq!(engine.r2_limits()[1], 8, "limit doubled again, at the cap");
        assert_eq!(engine.stats().fallbacks, 2);
    }

    #[test]
    fn adaptive_limit_decays_when_claims_are_heard_again() {
        // Drive the limit up with a crashed upper neighbor, then revive it:
        // every heard claim halves the limit back toward the initial value.
        let n = 3;
        let mut engine = BatchedDpEngine::new(DpConfig::new(timing()), n)
            .with_churn_process(crash(n, 0, 0, 10))
            .with_recovery(RecoveryConfig::new().with_adaptive_miss_limit(1, 16));
        let mut rng = SeedStream::new(8).rng(2);
        let mut channel = reliable(n);
        let mu = [1e-9; 3];
        for _ in 0..10 {
            let _ = engine.step_with_candidates(&[1, 1, 1], &mu, &[1], &mut channel, &mut rng);
            if engine.beliefs()[1] != 2 {
                engine.set_beliefs(vec![1, 2, 3]); // re-arm the lo side after each fire
            }
        }
        assert!(engine.r2_limits()[1] > 2, "fires backed the limit off");
        // Upper neighbor is back: its claims now reset and decay the limit.
        for _ in 10..20 {
            let _ = engine.step_with_candidates(&[1, 1, 1], &mu, &[1], &mut channel, &mut rng);
        }
        assert_eq!(
            engine.r2_limits()[1],
            2,
            "heard claims decay the limit back to the initial value"
        );
    }

    #[test]
    fn hidden_terminal_starves_r2_despite_live_claims() {
        // Link 0 transmits a clean claim at priority 1 every interval. A
        // listener that hears it never falls back; the same listener with
        // link 0 in its hidden set is deaf to the claims and R2 fires.
        let run = |hidden: Option<HiddenMatrix>| {
            let mut engine = BatchedDpEngine::new(DpConfig::new(timing()), 3);
            if let Some(h) = hidden {
                engine = engine.with_hidden(h);
            }
            let mut rng = SeedStream::new(8).rng(2);
            let mut channel = reliable(3);
            let mu = [1e-9; 3];
            let mut fell_back_at = None;
            for k in 0..20 {
                let _ = engine.step_with_candidates(&[1, 1, 1], &mu, &[1], &mut channel, &mut rng);
                if fell_back_at.is_none() && engine.beliefs()[1] != 2 {
                    fell_back_at = Some(k);
                }
            }
            fell_back_at
        };
        assert_eq!(run(None), None, "heard claims keep the lo side in place");
        let deaf = run(Some(HiddenMatrix::new(3).with_hidden(1, 0)));
        assert_eq!(
            deaf,
            Some(2),
            "a hidden upper neighbor looks crashed: R2 fires after 3 misses"
        );
    }

    #[test]
    fn churn_events_are_drained_with_edges() {
        let n = 4;
        let mut engine =
            BatchedDpEngine::new(DpConfig::new(timing()), n).with_churn_process(crash(n, 2, 2, 3));
        let mut rng = SeedStream::new(21).rng(2);
        let mut channel = reliable(n);
        let mut events = Vec::new();
        for _ in 0..8 {
            let _ = engine.step(&[1; 4], &[0.5; 4], &mut channel, &mut rng);
        }
        engine.drain_churn_events(&mut events);
        assert_eq!(
            events,
            [
                ChurnEvent {
                    link: 2,
                    up: false,
                    interval: 2
                },
                ChurnEvent {
                    link: 2,
                    up: true,
                    interval: 5
                },
            ]
        );
        // Draining empties the queue.
        events.clear();
        engine.drain_churn_events(&mut events);
        assert!(events.is_empty());
    }

    #[test]
    fn blocked_link_behaves_like_a_crashed_one() {
        let n = 3;
        let mut engine = BatchedDpEngine::new(DpConfig::new(timing()), n);
        assert!(!engine.is_blocked(0));
        engine.set_blocked(0, true);
        assert!(engine.is_blocked(0));
        let mut rng = SeedStream::new(4).rng(2);
        let mut channel = reliable(n);
        for _ in 0..10 {
            let r = engine.step(&[1; 3], &[0.5; 3], &mut channel, &mut rng);
            assert_eq!(r.outcome.deliveries[0], 0, "a blocked link never sends");
            assert_eq!(r.outcome.attempts[0], 0);
        }
        // Unblocking re-admits it through the normal claim mechanism.
        engine.set_blocked(0, false);
        let mut delivered = 0;
        for _ in 0..50 {
            let r = engine.step(&[1; 3], &[0.5; 3], &mut channel, &mut rng);
            delivered += r.outcome.deliveries[0];
        }
        assert!(delivered > 0, "unblocked link resumes service");
    }

    #[test]
    fn poisson_churn_and_bursty_sensing_survive_at_engine_level() {
        let n = 6;
        let mut engine = BatchedDpEngine::new(DpConfig::new(timing()), n)
            .with_fault_model(
                FaultModel::symmetric(0.02, SeedStream::new(31).rng(3)).with_burst(
                    n,
                    BurstSensing::new(0.05, 0.2, 0.4, 0.4),
                    SeedStream::new(31).rng(5),
                ),
            )
            .with_churn_process(ChurnProcess::new(n).with_poisson(
                0.01,
                8.0,
                SeedStream::new(31).rng(4),
            ))
            .with_recovery(RecoveryConfig::new().with_adaptive_miss_limit(2, 32));
        let mut rng = SeedStream::new(31).rng(2);
        let mut channel = reliable(n);
        for _ in 0..600 {
            let _ = engine.step(&[1; 6], &[0.4; 6], &mut channel, &mut rng);
            assert!(engine.beliefs().iter().all(|&b| (1..=n).contains(&b)));
        }
        let mid = engine.stats();
        assert!(mid.sensing_flips > 0, "bursty model must flip");
        assert!(mid.divergences > 0, "bursty sensing must desynchronize");
        assert!(
            engine
                .churn_process()
                .is_some_and(|c| c.poisson_crashes() > 0),
            "poisson churn must crash links"
        );
        // Stop injecting sensing errors: self-stabilization must close the
        // open desync epoch even while Poisson churn keeps running.
        engine.set_fault_model(FaultModel::none());
        let mut healed = false;
        for _ in 0..2000 {
            let _ = engine.step(&[1; 6], &[0.4; 6], &mut channel, &mut rng);
            if engine.is_bijective() {
                healed = true;
                break;
            }
        }
        assert!(healed, "recovery heals once the sensing noise stops");
        let stats = engine.stats();
        // The histogram partitions exactly the completed recoveries.
        assert!(stats.reconvergences > 0);
        assert_eq!(
            stats.reconverge_hist.iter().sum::<u64>(),
            stats.reconvergences
        );
    }

    #[test]
    fn equal_rate_burst_engine_is_byte_identical_to_iid_engine() {
        // Engine-level reduction: the GE model with bad rates equal to the
        // base rates replays the i.i.d. run draw-for-draw, including the
        // per-interval begin_interval() advancement.
        let n = 4;
        let eps = 0.1;
        let run = |bursty: bool| {
            let mut fault = FaultModel::symmetric(eps, SeedStream::new(12).rng(3));
            if bursty {
                fault = fault.with_burst(
                    n,
                    BurstSensing::new(0.2, 0.5, eps, eps),
                    SeedStream::new(12).rng(5),
                );
            }
            let mut engine =
                BatchedDpEngine::new(DpConfig::new(timing()), n).with_fault_model(fault);
            let mut rng = SeedStream::new(12).rng(2);
            let mut channel = reliable(n);
            let mut reports = Vec::new();
            for _ in 0..120 {
                reports.push(
                    engine
                        .step(&[1; 4], &[0.5; 4], &mut channel, &mut rng)
                        .clone(),
                );
            }
            (reports, engine.beliefs().to_vec())
        };
        assert_eq!(run(true), run(false));
    }
}
