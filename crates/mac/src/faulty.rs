//! Degraded-mode DP: Algorithm 2 executed over possibly corrupted local
//! priority state, with injected carrier-sensing faults, scripted link
//! churn, and a self-stabilizing recovery rule.
//!
//! The pristine [`BatchedDpEngine`](crate::BatchedDpEngine) holds one
//! global permutation σ because perfect sensing keeps every link's local
//! view identical. Once the
//! sensing oracle can lie (Eqs. 7–8 observed through a
//! [`FaultModel`]), the two sides of a drawn pair can commit *different*
//! moves, and from then on each link only has a private **belief** about its
//! own priority. This engine therefore replaces σ with a per-link belief
//! vector (an arbitrary multiset over `1..=N`), runs the same deterministic
//! backoff construction from each link's own belief, and — where the
//! pristine engine asserts collision-freedom — *models* the collision:
//! all simultaneous frames are destroyed and the medium stays busy for the
//! longest airtime.
//!
//! Recovery is the self-stabilizing re-ranking rule of this PR:
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
//! Beyond i.i.d. sensing flips and one scripted crash, the engine drives
//! the full correlated-fault surface of `rtmac_phy::fault`: Gilbert–Elliott
//! bursty sensing (advanced once per interval via
//! `FaultModel::begin_interval`), asymmetric hidden-terminal deafness
//! ([`HiddenMatrix`] — per-listener ground-truth busy signals and
//! claim hearing), and a general [`ChurnProcess`] (scripted events, flash
//! crowds, Poisson crash/revive). Crash/revive transitions are exposed as
//! [`ChurnEvent`]s through [`FaultyDpEngine::drain_churn_events`], and the
//! admission layer can administratively exclude links with
//! [`FaultyDpEngine::set_blocked`].
//!
//! A fallen-back link re-enters through the protocol's existing
//! empty-packet claim mechanism (Step 2): the next time it is drawn as a
//! candidate it claims its slot even with an empty queue. The reconvergence
//! proptests in this module show that from *any* corrupted belief multiset
//! the system returns to a bijection within a bounded number of intervals.
//!
//! With [`FaultModel::none`], no churn, and a bijective belief vector, every
//! code path below replays the pristine engine's randomness draw-for-draw,
//! so the interval reports are byte-identical — a property pinned by
//! proptest here and by the fig3/fig9 goldens end-to-end.

use rand::Rng;
use rtmac_model::{AdjacentTransposition, LinkId, Permutation};
use rtmac_phy::channel::LossModel;
use rtmac_phy::fault::{ChurnProcess, ChurnSchedule, FaultModel, HiddenMatrix};
use rtmac_phy::Medium;
use rtmac_sim::{Nanos, SimRng};

use crate::{DpConfig, DpIntervalReport, FrameKind, IntervalOutcome, TraceEvent};

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

/// Cumulative fault/recovery counters of a [`FaultyDpEngine`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Drawn pairs whose two sides committed inconsistent moves
    /// ([`TraceEvent::Divergence`]).
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
/// [`FaultyDpEngine::drain_churn_events`].
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

/// Per-interval state for one link that believes it is a side of a drawn
/// pair. Mirrors the pristine engine's per-pair state, but split per link:
/// under corrupted beliefs several links can claim the same side of the
/// same pair.
#[derive(Debug, Clone)]
struct Believer {
    link: usize,
    pair: usize,
    is_hi: bool,
    /// hi: wants to move down (ξ = −1); lo: wants to move up (ξ = +1).
    wants: bool,
    checked: bool,
    /// hi: heard busy at counter 1 (Eq. 7); lo: heard idle (Eq. 8).
    observed: bool,
    /// lo only: it actually began a transmission this interval.
    transmitted: bool,
    concede_arm_pending: bool,
    concede_armed: bool,
    concede: bool,
}

/// Per-interval working buffers, owned by the engine so the hot loop
/// allocates nothing after the first interval.
#[derive(Debug, Clone, Default)]
struct FaultyScratch {
    believers: Vec<Believer>,
    /// Shuffle scratch for the candidate draw; persists across intervals
    /// so the per-interval draw stops allocating after the first call.
    draw_pool: Vec<usize>,
    /// Per-link index into `believers` (a link plays at most one side).
    role: Vec<Option<usize>>,
    pending_empty: Vec<bool>,
    counter: Vec<u64>,
    data: Vec<u32>,
    done: Vec<bool>,
    collided: Vec<bool>,
    transmitters: Vec<usize>,
    airtimes: Vec<Nanos>,
    beliefs_before: Vec<usize>,
    /// Indexed by priority `1..=N`: the link whose clean (non-collided)
    /// claim at that believed priority went out this interval, if any.
    /// Recording the *claimant* (not just a flag) lets the R2 rule apply
    /// each listener's hidden-terminal deafness.
    heard_claim: Vec<Option<usize>>,
    hi_moves: Vec<usize>,
    lo_moves: Vec<usize>,
    /// Bijectivity-check scratch for the desync epoch accounting.
    bij_seen: Vec<bool>,
}

/// The degraded-mode DP engine: Algorithm 2 over per-link priority
/// *beliefs*, with injected sensing faults, optional link churn, and the
/// self-stabilizing recovery rule (see the module docs).
///
/// # Example
///
/// ```
/// use rtmac_mac::{DpConfig, FaultyDpEngine, MacTiming};
/// use rtmac_phy::channel::Bernoulli;
/// use rtmac_phy::fault::FaultModel;
/// use rtmac_phy::PhyProfile;
/// use rtmac_sim::{Nanos, SeedStream};
///
/// let timing = MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_millis(2), 100);
/// let mut engine = FaultyDpEngine::new(DpConfig::new(timing), 4)
///     .with_fault_model(FaultModel::symmetric(0.2, SeedStream::new(7).rng(3)));
/// let mut channel = Bernoulli::reliable(4);
/// let mut rng = SeedStream::new(7).rng(2);
/// for _ in 0..50 {
///     let _ = engine.run_interval(&[1, 1, 1, 1], &[0.5; 4], &mut channel, &mut rng);
/// }
/// // Sensing errors desynchronize the views, and recovery heals them:
/// // whatever happened, beliefs stay inside 1..=N.
/// assert!(engine.beliefs().iter().all(|&b| (1..=4).contains(&b)));
/// ```
#[derive(Debug, Clone)]
pub struct FaultyDpEngine {
    config: DpConfig,
    beliefs: Vec<usize>,
    fault: FaultModel,
    churn: Option<ChurnProcess>,
    hidden: Option<HiddenMatrix>,
    recovery: RecoveryConfig,
    interval_index: u64,
    missed: Vec<u32>,
    /// Per-link R2 miss limit currently in force (constant under
    /// [`MissLimit::Fixed`], backed off per link under
    /// [`MissLimit::Adaptive`]).
    r2_limit: Vec<u32>,
    desync_since: Option<u64>,
    stats: FaultStats,
    /// Flips folded in from fault models replaced via
    /// [`FaultyDpEngine::set_fault_model`].
    flips_base: u64,
    /// Last known churn down-state per link, for edge detection.
    was_down: Vec<bool>,
    /// Links administratively blocked (admission-rejected/shed): treated
    /// exactly like crashed links, but controlled by the caller.
    blocked: Vec<bool>,
    /// Crash/revive transitions not yet drained by the admission layer.
    churn_events: Vec<ChurnEvent>,
    scratch: FaultyScratch,
}

impl FaultyDpEngine {
    /// Creates an engine for `n_links` links with the identity belief
    /// vector, perfect sensing ([`FaultModel::none`]), no churn, and the
    /// default [`RecoveryConfig`].
    ///
    /// # Panics
    ///
    /// Panics if `n_links == 0`.
    #[must_use]
    pub fn new(config: DpConfig, n_links: usize) -> Self {
        assert!(n_links > 0, "a network needs at least one link");
        let recovery = RecoveryConfig::new();
        FaultyDpEngine {
            config,
            beliefs: (1..=n_links).collect(),
            fault: FaultModel::none(),
            churn: None,
            hidden: None,
            interval_index: 0,
            missed: vec![0; n_links],
            r2_limit: vec![recovery.initial_miss_limit(n_links); n_links],
            recovery,
            desync_since: None,
            stats: FaultStats::default(),
            flips_base: 0,
            was_down: vec![false; n_links],
            blocked: vec![false; n_links],
            churn_events: Vec::new(),
            scratch: FaultyScratch::default(),
        }
    }

    /// Installs a sensing-fault model.
    #[must_use]
    pub fn with_fault_model(mut self, fault: FaultModel) -> Self {
        self.set_fault_model(fault);
        self
    }

    /// Installs a single crash/revive churn event (wrapped into a
    /// one-event [`ChurnProcess`]).
    ///
    /// # Panics
    ///
    /// Panics if the scheduled link is out of range.
    #[must_use]
    pub fn with_churn(mut self, churn: ChurnSchedule) -> Self {
        assert!(
            churn.link().index() < self.beliefs.len(),
            "churn link out of range"
        );
        self.churn = Some(ChurnProcess::new(self.beliefs.len()).with_event(churn));
        self
    }

    /// Installs a full churn process (scripted events, flash crowds,
    /// Poisson crash/revive).
    ///
    /// # Panics
    ///
    /// Panics if the process link count differs from the engine's.
    #[must_use]
    pub fn with_churn_process(mut self, churn: ChurnProcess) -> Self {
        assert_eq!(
            churn.n_links(),
            self.beliefs.len(),
            "churn process link count mismatch"
        );
        self.churn = Some(churn);
        self
    }

    /// Installs an asymmetric hidden-terminal matrix: each listener's
    /// carrier-sense observations (and R2 claim hearing) ignore
    /// transmitters hidden from it.
    ///
    /// # Panics
    ///
    /// Panics if the matrix link count differs from the engine's.
    #[must_use]
    pub fn with_hidden(mut self, hidden: HiddenMatrix) -> Self {
        assert_eq!(
            hidden.n_links(),
            self.beliefs.len(),
            "hidden matrix link count mismatch"
        );
        self.hidden = Some(hidden);
        self
    }

    /// Overrides the recovery rule.
    #[must_use]
    pub fn with_recovery(mut self, recovery: RecoveryConfig) -> Self {
        self.recovery = recovery;
        let initial = recovery.initial_miss_limit(self.beliefs.len());
        self.r2_limit.iter_mut().for_each(|l| *l = initial);
        self
    }

    /// Replaces the sensing-fault model mid-run (test hook: e.g. stop
    /// injecting errors and watch recovery heal the views). Flip counts of
    /// the outgoing model are preserved in [`FaultyDpEngine::stats`].
    pub fn set_fault_model(&mut self, fault: FaultModel) {
        self.flips_base = self.flips_base.saturating_add(self.fault.injected());
        self.fault = fault;
    }

    /// Number of links.
    #[must_use]
    pub fn n_links(&self) -> usize {
        self.beliefs.len()
    }

    /// The engine configuration.
    #[must_use]
    pub fn config(&self) -> &DpConfig {
        &self.config
    }

    /// The recovery rule in force.
    #[must_use]
    pub fn recovery(&self) -> &RecoveryConfig {
        &self.recovery
    }

    /// The churn process, if any.
    #[must_use]
    pub fn churn_process(&self) -> Option<&ChurnProcess> {
        self.churn.as_ref()
    }

    /// The hidden-terminal matrix, if any.
    #[must_use]
    pub fn hidden(&self) -> Option<&HiddenMatrix> {
        self.hidden.as_ref()
    }

    /// The per-link R2 miss limits currently in force.
    #[must_use]
    pub fn r2_limits(&self) -> &[u32] {
        &self.r2_limit
    }

    /// Administratively blocks or unblocks a link. A blocked link behaves
    /// exactly like a crashed one — it neither transmits, senses, nor
    /// updates its belief — until unblocked. This is the admission
    /// controller's shedding hook.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn set_blocked(&mut self, link: usize, blocked: bool) {
        assert!(link < self.blocked.len(), "blocked link out of range");
        self.blocked[link] = blocked;
    }

    /// Whether `link` is currently administratively blocked.
    #[must_use]
    pub fn is_blocked(&self, link: usize) -> bool {
        self.blocked.get(link).copied().unwrap_or(false)
    }

    /// Moves all churn transitions (crashes and revivals) recorded since
    /// the last drain into `out`, oldest first. The admission layer calls
    /// this after each interval to learn about joiners and leavers.
    pub fn drain_churn_events(&mut self, out: &mut Vec<ChurnEvent>) {
        out.append(&mut self.churn_events);
    }

    /// Number of intervals run so far.
    #[must_use]
    pub fn intervals_run(&self) -> u64 {
        self.interval_index
    }

    /// The per-link priority beliefs (`beliefs()[n]` is what link `n`
    /// thinks its own priority is).
    #[must_use]
    pub fn beliefs(&self) -> &[usize] {
        &self.beliefs
    }

    /// Overrides the belief vector — the test hook for starting from a
    /// corrupted multiset (duplicates and holes allowed).
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the link count or any value falls
    /// outside `1..=N`.
    pub fn set_beliefs(&mut self, beliefs: Vec<usize>) {
        let n = self.beliefs.len();
        assert_eq!(beliefs.len(), n, "belief vector size must match link count");
        for (link, &b) in beliefs.iter().enumerate() {
            assert!(
                (1..=n).contains(&b),
                "belief {b} of link {link} outside 1..={n}"
            );
        }
        self.beliefs = beliefs;
        self.missed.iter_mut().for_each(|m| *m = 0);
    }

    /// Whether the belief multiset currently forms a bijection of `1..=N`.
    #[must_use]
    pub fn is_bijective(&self) -> bool {
        let n = self.beliefs.len();
        let mut seen = vec![false; n];
        for &b in &self.beliefs {
            if seen[b - 1] {
                return false;
            }
            seen[b - 1] = true;
        }
        true
    }

    /// The belief vector as a [`Permutation`], when it is one.
    #[must_use]
    pub fn sigma(&self) -> Option<Permutation> {
        Permutation::from_priorities(self.beliefs.clone()).ok()
    }

    /// Cumulative fault/recovery counters.
    #[must_use]
    pub fn stats(&self) -> FaultStats {
        let mut s = self.stats;
        s.sensing_flips = self.flips_base.saturating_add(self.fault.injected());
        s
    }

    /// Same candidate draw as the pristine engine (Step 1 / Remark 6) —
    /// kept draw-for-draw identical so the zero-fault paths replay the
    /// pristine randomness exactly.
    fn draw_candidates(&mut self, rng: &mut SimRng) -> Vec<usize> {
        // lint: allow(hot-path-alloc) — report-owned candidate buffer; shuffle pool reused via FaultyScratch
        let mut out = Vec::with_capacity(self.config.swap_pairs());
        let mut pool = std::mem::take(&mut self.scratch.draw_pool);
        crate::draw_nonadjacent_candidates_into(
            self.beliefs.len(),
            self.config.swap_pairs(),
            rng,
            &mut out,
            &mut pool,
        );
        self.scratch.draw_pool = pool;
        out
    }

    /// Runs one degraded-mode interval. Arguments as in
    /// [`BatchedDpEngine::step`](crate::BatchedDpEngine::step).
    ///
    /// # Panics
    ///
    /// Panics if `arrivals`, `mu`, or the channel's link count disagree
    /// with the engine's, or if some `μ_n ∉ (0, 1)`.
    pub fn run_interval(
        &mut self,
        arrivals: &[u32],
        mu: &[f64],
        channel: &mut dyn LossModel,
        rng: &mut SimRng,
    ) -> DpIntervalReport {
        let candidates = self.draw_candidates(rng);
        self.run_candidates(arrivals, mu, candidates, channel, rng)
    }

    /// Runs one interval with an explicitly injected candidate set, for
    /// deterministic tests. `candidates` must be sorted upper priorities
    /// `C ∈ 1..N`, pairwise non-adjacent.
    ///
    /// # Panics
    ///
    /// Same as [`FaultyDpEngine::run_interval`], plus a panic if the
    /// candidate set is malformed.
    pub fn run_interval_with_candidates(
        &mut self,
        arrivals: &[u32],
        mu: &[f64],
        candidates: &[usize],
        channel: &mut dyn LossModel,
        rng: &mut SimRng,
    ) -> DpIntervalReport {
        self.run_candidates(
            arrivals,
            mu,
            // lint: allow(hot-path-alloc) — copies the caller's injected draw into the report-owned set
            candidates.to_vec(),
            channel,
            rng,
        )
    }

    fn run_candidates(
        &mut self,
        arrivals: &[u32],
        mu: &[f64],
        candidates: Vec<usize>,
        channel: &mut dyn LossModel,
        rng: &mut SimRng,
    ) -> DpIntervalReport {
        let n = self.beliefs.len();
        assert_eq!(arrivals.len(), n, "arrivals must have one entry per link");
        assert_eq!(channel.n_links(), n, "channel link count mismatch");
        assert_eq!(mu.len(), n, "mu must have one entry per link");
        for (i, &m) in mu.iter().enumerate() {
            assert!(m > 0.0 && m < 1.0, "mu[{i}] = {m} must lie in (0, 1)");
        }
        for (i, &c) in candidates.iter().enumerate() {
            assert!(c >= 1 && c < n, "candidate priority {c} out of range");
            if i > 0 {
                assert!(
                    c >= candidates[i - 1] + 2,
                    "candidates must be sorted and non-adjacent"
                );
            }
        }
        let interval = self.interval_index;
        let Self {
            config,
            beliefs,
            fault,
            churn,
            hidden,
            recovery,
            missed,
            r2_limit,
            scratch,
            stats,
            was_down,
            blocked,
            churn_events,
            ..
        } = self;
        let timing = config.timing();
        let tracing = config.trace();
        // lint: allow(hot-path-alloc) — report-owned trace; lazily allocating and empty unless tracing is on
        let mut trace: Vec<TraceEvent> = Vec::new();

        // Advance the stochastic fault processes exactly once per interval.
        // Both calls are zero-draw no-ops for i.i.d./none sensing and
        // scripted-only churn, preserving the pristine byte-identity.
        fault.begin_interval();
        if let Some(c) = churn.as_mut() {
            c.advance_to(interval);
        }
        let churn = churn.as_ref();
        let hidden = hidden.as_ref();
        // Edge-detect churn transitions for the admission layer.
        for (link, known) in was_down.iter_mut().enumerate() {
            let is_down_now = churn.is_some_and(|c| c.is_down(link, interval));
            if is_down_now != *known {
                *known = is_down_now;
                churn_events.push(ChurnEvent {
                    link,
                    up: !is_down_now,
                    interval,
                });
            }
        }
        let down = |link: usize| blocked[link] || churn.is_some_and(|c| c.is_down(link, interval));

        let FaultyScratch {
            believers,
            role,
            pending_empty,
            counter,
            data,
            done,
            collided,
            transmitters,
            airtimes,
            beliefs_before,
            heard_claim,
            hi_moves,
            lo_moves,
            bij_seen,
            draw_pool: _,
        } = scratch;
        beliefs_before.clear();
        beliefs_before.extend_from_slice(beliefs);

        // Steps 2–3: empty packets and coins, per link from its own belief.
        // Coin order — per pair: hi-believers in link order, then
        // lo-believers in link order — degenerates to the pristine engine's
        // (hi, lo) order when the beliefs are a bijection.
        believers.clear();
        role.clear();
        role.resize(n, None);
        pending_empty.clear();
        pending_empty.resize(n, false);
        for (j, &c) in candidates.iter().enumerate() {
            for side in [true, false] {
                let claimed = if side { c } else { c + 1 };
                for link in 0..n {
                    if beliefs[link] != claimed || down(link) {
                        continue;
                    }
                    if arrivals[link] == 0 {
                        pending_empty[link] = true;
                    }
                    // ξ = +1 with probability μ (Eq. 5).
                    let xi_up = rng.random_bool(mu[link]);
                    role[link] = Some(believers.len());
                    believers.push(Believer {
                        link,
                        pair: j,
                        is_hi: side,
                        wants: if side { !xi_up } else { xi_up },
                        checked: false,
                        observed: false,
                        transmitted: false,
                        concede_arm_pending: false,
                        concede_armed: false,
                        concede: false,
                    });
                }
            }
        }

        // Step 4: deterministic backoffs (Eq. 6) from each link's belief.
        counter.clear();
        counter.resize(n, 0);
        for link in 0..n {
            if down(link) {
                continue;
            }
            let b = beliefs[link];
            counter[link] = match role[link] {
                Some(idx) => {
                    let bl = &believers[idx];
                    let offset = 2 * bl.pair as u64;
                    let xi: i64 = if bl.is_hi == bl.wants { -1 } else { 1 };
                    (b as i64 - xi) as u64 + offset
                }
                None => {
                    let pairs_above = candidates.iter().filter(|&&c| c + 1 < b).count() as u64;
                    (b as u64 - 1) + 2 * pairs_above
                }
            };
            if tracing {
                trace.push(TraceEvent::BackoffSet {
                    link: LinkId::new(link),
                    counter: counter[link],
                });
            }
        }

        // Interval state. A crashed link is done before the interval
        // starts: it neither transmits, senses, nor updates its belief.
        data.clear();
        data.extend_from_slice(arrivals);
        done.clear();
        done.resize(n, false);
        collided.clear();
        collided.resize(n, false);
        heard_claim.clear();
        heard_claim.resize(n + 1, None);
        for (link, d) in done.iter_mut().enumerate() {
            if down(link) {
                *d = true;
            }
        }
        let mut outcome = IntervalOutcome::empty(n);
        let mut medium = Medium::new();
        let slot = timing.slot();
        let deadline = timing.deadline();

        let mut t = Nanos::ZERO;
        let mut first_boundary = true;
        loop {
            if t >= deadline || done.iter().all(|&d| d) {
                break;
            }

            if !first_boundary {
                for link in 0..n {
                    if !done[link] && counter[link] > 0 {
                        counter[link] -= 1;
                    }
                }
            }

            // Who starts transmitting at this boundary? Corrupted beliefs
            // can place several links here at once.
            transmitters.clear();
            for link in 0..n {
                if done[link] || counter[link] != 0 {
                    continue;
                }
                let has_data = data[link] > 0;
                let has_empty = pending_empty[link];
                if !has_data && !has_empty {
                    done[link] = true;
                    continue;
                }
                let airtime = if has_data {
                    timing.data_airtime_for(link)
                } else {
                    timing.empty_airtime()
                };
                if timing.fits(t, airtime) {
                    transmitters.push(link);
                } else {
                    done[link] = true;
                    if let Some(idx) = role[link] {
                        if believers[idx].is_hi && !believers[idx].wants {
                            believers[idx].concede_arm_pending = true;
                        }
                    }
                }
            }

            // Step 5: carrier-sense checks at counter 1 (Eqs. 7–8), each
            // observation filtered through the fault model. With a
            // hidden-terminal matrix the *ground-truth* busy signal is
            // listener-specific (deafness is topology, not noise); the
            // probabilistic flip applies on top. `sense` consumes exactly
            // one draw per call either way, so the fault stream stays
            // aligned with the matrix-free run.
            let busy_now = !transmitters.is_empty();
            let busy_for = |listener: usize| match hidden {
                Some(h) if !h.is_trivial() => h.hears_any(listener, transmitters),
                _ => busy_now,
            };
            for bl in believers.iter_mut() {
                if bl.concede_armed {
                    bl.concede = fault.sense(LinkId::new(bl.link), busy_for(bl.link));
                    bl.concede_armed = false;
                }
                if bl.concede_arm_pending {
                    bl.concede_armed = true;
                    bl.concede_arm_pending = false;
                }
                if bl.wants && !bl.checked && !done[bl.link] && counter[bl.link] == 1 {
                    bl.checked = true;
                    let heard_busy = fault.sense(LinkId::new(bl.link), busy_for(bl.link));
                    // hi listens for "busy", lo for "idle".
                    bl.observed = if bl.is_hi { heard_busy } else { !heard_busy };
                    if tracing {
                        trace.push(TraceEvent::SenseCheck {
                            link: LinkId::new(bl.link),
                            at: t,
                            busy: heard_busy,
                        });
                    }
                }
            }

            if transmitters.is_empty() {
                outcome.idle_slots += 1;
                t += slot;
                first_boundary = false;
                continue;
            }

            if transmitters.len() == 1 {
                // The unique-transmitter path, identical to the pristine
                // engine (Step 6).
                let link = transmitters[0];
                if let Some(idx) = role[link] {
                    if !believers[idx].is_hi {
                        believers[idx].transmitted = true;
                    }
                }
                let mut now = t;
                let airtime = timing.data_airtime_for(link);
                while data[link] > 0 && timing.fits(now, airtime) {
                    let tx = medium.transmit(now, &[airtime]);
                    outcome.attempts[link] += 1;
                    let delivered = channel.attempt(LinkId::new(link), rng);
                    if delivered {
                        data[link] -= 1;
                        outcome.deliveries[link] += 1;
                        outcome.latency_sum[link] += tx.ends_at;
                    }
                    if tracing {
                        trace.push(TraceEvent::TxStart {
                            link: LinkId::new(link),
                            at: now,
                            kind: FrameKind::Data,
                        });
                        trace.push(TraceEvent::TxEnd {
                            link: LinkId::new(link),
                            at: tx.ends_at,
                            delivered,
                        });
                    }
                    now = tx.ends_at;
                }
                if data[link] == 0
                    && pending_empty[link]
                    && timing.fits(now, timing.empty_airtime())
                {
                    let tx = medium.transmit(now, &[timing.empty_airtime()]);
                    outcome.empty_packets += 1;
                    pending_empty[link] = false;
                    if tracing {
                        trace.push(TraceEvent::TxStart {
                            link: LinkId::new(link),
                            at: now,
                            kind: FrameKind::Empty,
                        });
                        trace.push(TraceEvent::TxEnd {
                            link: LinkId::new(link),
                            at: tx.ends_at,
                            delivered: false,
                        });
                    }
                    now = tx.ends_at;
                }
                // A clean frame carries the sender's believed priority —
                // that is the "claim heard" event the R2 rule listens for.
                heard_claim[beliefs_before[link]] = Some(link);
                done[link] = true;
                t = now + slot;
            } else {
                // Degraded mode: desynchronized beliefs put two or more
                // links in the same backoff slot. All frames are destroyed
                // and the medium stays busy for the longest airtime
                // (counted once per episode via `medium.stats()`).
                airtimes.clear();
                airtimes.extend(transmitters.iter().map(|&l| {
                    if data[l] > 0 {
                        timing.data_airtime_for(l)
                    } else {
                        timing.empty_airtime()
                    }
                }));
                let tx = medium.transmit(t, airtimes);
                for &l in transmitters.iter() {
                    let kind = if data[l] > 0 {
                        outcome.attempts[l] += 1;
                        FrameKind::Data
                    } else {
                        outcome.empty_packets += 1;
                        pending_empty[l] = false;
                        FrameKind::Empty
                    };
                    done[l] = true;
                    collided[l] = true;
                    if let Some(idx) = role[l] {
                        if !believers[idx].is_hi {
                            believers[idx].transmitted = true;
                        }
                    }
                    if tracing {
                        trace.push(TraceEvent::TxStart {
                            link: LinkId::new(l),
                            at: t,
                            kind,
                        });
                        trace.push(TraceEvent::TxEnd {
                            link: LinkId::new(l),
                            at: tx.ends_at,
                            delivered: false,
                        });
                    }
                }
                t = tx.ends_at + slot;
            }
            first_boundary = false;
        }

        // Steps 5/7: commit the handshake each believer *thinks* it
        // completed. With faults the two sides of a pair can disagree —
        // that inconsistency is a Divergence, and it is exactly how the
        // belief multiset loses bijectivity.
        hi_moves.clear();
        hi_moves.resize(candidates.len(), 0);
        lo_moves.clear();
        lo_moves.resize(candidates.len(), 0);
        for bl in believers.iter() {
            if bl.is_hi {
                if (bl.wants && bl.observed) || bl.concede {
                    beliefs[bl.link] += 1;
                    hi_moves[bl.pair] += 1;
                }
            } else if bl.wants && bl.observed && bl.transmitted {
                beliefs[bl.link] -= 1;
                lo_moves[bl.pair] += 1;
                missed[bl.link] = 0;
            }
        }
        // lint: allow(hot-path-alloc) — report-owned swap list; lazily allocates only when a swap commits
        let mut swaps = Vec::new();
        for (j, &c) in candidates.iter().enumerate() {
            if hi_moves[j] == 1 && lo_moves[j] == 1 {
                swaps.push(AdjacentTransposition::new(c));
                if tracing {
                    trace.push(TraceEvent::SwapCommitted { upper: c });
                }
            }
            if hi_moves[j] != lo_moves[j] {
                stats.divergences += 1;
                if tracing {
                    trace.push(TraceEvent::Divergence { upper: c });
                }
            }
        }

        // Recovery: R1 (collision in an owned slot) and R2 (miss limit on
        // the adjacent upper claim) both fall back to the lowest priority;
        // re-entry happens through the empty-packet claim mechanism.
        for link in 0..n {
            if down(link) {
                continue;
            }
            if collided[link] && recovery.collision_fallback {
                missed[link] = 0;
                if beliefs[link] != n {
                    beliefs[link] = n;
                    stats.fallbacks += 1;
                }
                continue;
            }
            if !recovery.miss_fallback {
                continue;
            }
            let Some(idx) = role[link] else { continue };
            let bl = &believers[idx];
            // Eligible interval: the link played lo of a drawn pair and
            // did not move up itself.
            if bl.is_hi || beliefs[link] != beliefs_before[link] {
                continue;
            }
            let adjacent_upper = beliefs_before[link] - 1;
            // A claim only counts if this listener can physically hear the
            // claimant — hidden-terminal deafness is ground truth, not
            // noise, so it bypasses the probabilistic fault model.
            let heard_it = match heard_claim[adjacent_upper] {
                Some(tx) => !hidden.as_ref().is_some_and(|h| h.is_hidden(link, tx)),
                None => false,
            };
            if heard_it {
                missed[link] = 0;
                // Adaptive R2: a heard claim is evidence the neighborhood
                // works again — halve the backed-off limit toward its
                // initial value.
                if let MissLimit::Adaptive { .. } = recovery.miss_limit {
                    let initial = recovery.initial_miss_limit(n);
                    r2_limit[link] = (r2_limit[link] / 2).max(initial);
                }
            } else {
                missed[link] = missed[link].saturating_add(1);
                if missed[link] >= r2_limit[link] {
                    missed[link] = 0;
                    // Adaptive R2: this link just re-ranked; back off its
                    // limit exponentially so a persistently deaf
                    // neighborhood stops thrashing the priority floor.
                    if let MissLimit::Adaptive { cap, .. } = recovery.miss_limit {
                        r2_limit[link] = r2_limit[link].saturating_mul(2).min(cap);
                    }
                    if beliefs[link] != n {
                        beliefs[link] = n;
                        stats.fallbacks += 1;
                    }
                }
            }
        }

        #[cfg(debug_assertions)]
        for (link, &b) in beliefs.iter().enumerate() {
            debug_assert!(
                (1..=n).contains(&b),
                "belief {b} of link {link} escaped 1..={n}"
            );
        }

        // Desync epoch accounting: a desync epoch opens at the end of the
        // first interval whose belief multiset is not a bijection and
        // closes when bijectivity returns.
        let bijective = {
            bij_seen.clear();
            bij_seen.resize(n, false);
            beliefs
                .iter()
                .all(|&b| !std::mem::replace(&mut bij_seen[b - 1], true))
        };
        if bijective {
            if let Some(since) = self.desync_since.take() {
                let burst = interval.saturating_sub(since).max(1);
                stats.reconvergences += 1;
                stats.reconverge_interval_sum = stats.reconverge_interval_sum.saturating_add(burst);
                stats.reconverge_hist[FaultStats::reconverge_bucket(burst)] += 1;
            }
        } else {
            stats.desync_intervals += 1;
            if self.desync_since.is_none() {
                self.desync_since = Some(interval);
            }
        }
        self.interval_index = interval + 1;

        outcome.collisions += medium.stats().collisions;
        outcome.busy_time = medium.stats().busy_time;
        outcome.leftover = deadline.saturating_sub(medium.busy_until());
        DpIntervalReport {
            outcome,
            candidates,
            swaps,
            trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BatchedDpEngine, MacTiming};
    use proptest::prelude::*;
    use rtmac_phy::channel::Bernoulli;
    use rtmac_phy::fault::BurstSensing;
    use rtmac_phy::PhyProfile;
    use rtmac_sim::SeedStream;

    fn timing() -> MacTiming {
        MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_millis(2), 100)
    }

    fn reliable(n: usize) -> Bernoulli {
        Bernoulli::reliable(n)
    }

    #[test]
    fn zero_faults_identity_beliefs_match_pristine_engine() {
        let n = 5;
        let mut pristine = BatchedDpEngine::new(DpConfig::new(timing()).with_trace(true), n);
        let mut faulty = FaultyDpEngine::new(DpConfig::new(timing()).with_trace(true), n);
        let mut rng_a = SeedStream::new(42).rng(2);
        let mut rng_b = SeedStream::new(42).rng(2);
        let mut ch_a = reliable(n);
        let mut ch_b = reliable(n);
        let arrivals = [2, 0, 1, 3, 0];
        let mu = [0.4; 5];
        for k in 0..200 {
            let a = pristine.step(&arrivals, &mu, &mut ch_a, &mut rng_a);
            let b = faulty.run_interval(&arrivals, &mu, &mut ch_b, &mut rng_b);
            assert_eq!(a, &b, "interval {k} diverged");
            assert_eq!(pristine.sigma().priorities(), faulty.beliefs());
        }
        let s = faulty.stats();
        assert_eq!(s, FaultStats::default());
        assert!(faulty.sigma().is_some());
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
            let mut faulty = FaultyDpEngine::new(cfg(), n);
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
                let b = faulty.run_interval(&arrivals, &mu, &mut ch_b, &mut rng_b);
                prop_assert_eq!(a, &b, "interval {} diverged", k);
                prop_assert_eq!(pristine.sigma().priorities(), faulty.beliefs());
            }
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
            let mut engine = FaultyDpEngine::new(DpConfig::new(timing()), n);
            engine.set_beliefs(beliefs);
            let mut rng = SeedStream::new(seed).rng(2);
            let mut channel = reliable(n);
            let arrivals = vec![1u32; n];
            let mu = vec![0.5f64; n];
            let mut healed_at = None;
            const BOUND: u64 = 1500;
            for k in 0..BOUND {
                let _ = engine.run_interval(&arrivals, &mu, &mut channel, &mut rng);
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
                let _ = engine.run_interval(&arrivals, &mu, &mut channel, &mut rng);
                prop_assert!(engine.is_bijective());
            }
        }
    }

    #[test]
    fn sensing_faults_diverge_and_recovery_heals() {
        let n = 4;
        let mut engine = FaultyDpEngine::new(DpConfig::new(timing()).with_trace(true), n)
            .with_fault_model(FaultModel::symmetric(0.3, SeedStream::new(5).rng(3)));
        let mut rng = SeedStream::new(5).rng(2);
        let mut channel = reliable(n);
        let arrivals = [1u32; 4];
        let mu = [0.5f64; 4];
        let mut saw_divergence = false;
        for _ in 0..300 {
            let report = engine.run_interval(&arrivals, &mu, &mut channel, &mut rng);
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
            let _ = engine.run_interval(&arrivals, &mu, &mut channel, &mut rng);
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
        let mut engine = FaultyDpEngine::new(DpConfig::new(timing()), n)
            .with_recovery(RecoveryConfig::disabled());
        engine.set_beliefs(vec![1, 1]);
        let mut rng = SeedStream::new(11).rng(2);
        let mut channel = reliable(n);
        for _ in 0..300 {
            let report = engine.run_interval(&[1, 1], &[0.5, 0.5], &mut channel, &mut rng);
            assert!(!engine.is_bijective());
            let _ = report;
        }
        assert_eq!(engine.stats().fallbacks, 0);
        assert_eq!(engine.stats().reconvergences, 0);

        // The identical run with recovery enabled heals.
        let mut engine = FaultyDpEngine::new(DpConfig::new(timing()), n);
        engine.set_beliefs(vec![1, 1]);
        let mut rng = SeedStream::new(11).rng(2);
        let mut channel = reliable(n);
        let mut healed = false;
        for _ in 0..300 {
            let _ = engine.run_interval(&[1, 1], &[0.5, 0.5], &mut channel, &mut rng);
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
        let mut engine = FaultyDpEngine::new(DpConfig::new(timing()).with_trace(true), n)
            .with_recovery(RecoveryConfig::disabled());
        engine.set_beliefs(vec![2, 2, 3]); // hole at 1, duplicate at 2
        let mut rng = SeedStream::new(3).rng(2);
        let mut channel = reliable(n);
        // No candidates: the duplicate pair shares β = 1 deterministically.
        let report =
            engine.run_interval_with_candidates(&[1, 1, 1], &[0.5; 3], &[], &mut channel, &mut rng);
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
        let mut engine = FaultyDpEngine::new(DpConfig::new(timing()), n);
        engine.set_beliefs(vec![2, 2, 3]);
        let mut rng = SeedStream::new(3).rng(2);
        let mut channel = reliable(n);
        let _ =
            engine.run_interval_with_candidates(&[1, 1, 1], &[0.5; 3], &[], &mut channel, &mut rng);
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
        let mut engine = FaultyDpEngine::new(DpConfig::new(timing()), n)
            .with_churn(ChurnSchedule::new(LinkId::new(0), 0, 100))
            .with_recovery(RecoveryConfig::new().with_miss_limit(3));
        let mut rng = SeedStream::new(8).rng(2);
        let mut channel = reliable(n);
        let mu = [1e-9; 3];
        for k in 0..3 {
            assert_eq!(engine.beliefs()[1], 2, "no fallback before interval {k}");
            let _ =
                engine.run_interval_with_candidates(&[1, 1, 1], &mu, &[1], &mut channel, &mut rng);
        }
        assert_eq!(engine.beliefs()[1], 3, "R2 fallback after 3 misses");
        assert_eq!(engine.stats().fallbacks, 1);
        // The crashed link's belief is frozen (stale σ).
        assert_eq!(engine.beliefs()[0], 1);
    }

    #[test]
    fn churn_crash_and_revive_with_stale_belief() {
        let n = 4;
        let mut engine = FaultyDpEngine::new(DpConfig::new(timing()), n)
            .with_churn(ChurnSchedule::new(LinkId::new(2), 5, 10));
        let mut rng = SeedStream::new(21).rng(2);
        let mut channel = reliable(n);
        let arrivals = [1u32; 4];
        let mu = [0.5f64; 4];
        let mut down_deliveries = 0u64;
        let mut live_deliveries = 0u64;
        for k in 0..5 {
            let r = engine.run_interval(&arrivals, &mu, &mut channel, &mut rng);
            assert_eq!(r.outcome.total_deliveries(), 4, "all up in interval {k}");
        }
        for _ in 5..15 {
            let r = engine.run_interval(&arrivals, &mu, &mut channel, &mut rng);
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
            let _ = engine.run_interval(&arrivals, &mu, &mut channel, &mut rng);
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
        let mut engine = FaultyDpEngine::new(DpConfig::new(timing()), n)
            .with_churn(ChurnSchedule::new(LinkId::new(0), 0, 5));
        let mut rng = SeedStream::new(2).rng(2);
        let mut channel = reliable(n);
        // Only the crashed link has traffic.
        let report =
            engine.run_interval_with_candidates(&[3, 0], &[0.5, 0.5], &[], &mut channel, &mut rng);
        assert_eq!(report.outcome.total_attempts(), 0);
        assert_eq!(report.outcome.collisions, 0);
        assert_eq!(report.outcome.busy_time, Nanos::ZERO);
    }

    #[test]
    fn divergence_counter_matches_trace_events() {
        let n = 4;
        let mut engine = FaultyDpEngine::new(DpConfig::new(timing()).with_trace(true), n)
            .with_fault_model(FaultModel::symmetric(0.4, SeedStream::new(13).rng(3)));
        let mut rng = SeedStream::new(13).rng(2);
        let mut channel = reliable(n);
        let mut traced = 0u64;
        for _ in 0..200 {
            let report = engine.run_interval(&[1; 4], &[0.5; 4], &mut channel, &mut rng);
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
        let mut engine = FaultyDpEngine::new(DpConfig::new(timing()), 4);
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
        let mut engine = FaultyDpEngine::new(DpConfig::new(timing()), n)
            .with_churn(ChurnSchedule::new(LinkId::new(0), 0, 1000))
            .with_recovery(recovery);
        let mut rng = SeedStream::new(8).rng(2);
        let mut channel = reliable(n);
        let mu = [1e-9; 3];
        for k in 0..2 {
            assert_eq!(engine.beliefs()[1], 2, "no fallback before interval {k}");
            let _ =
                engine.run_interval_with_candidates(&[1, 1, 1], &mu, &[1], &mut channel, &mut rng);
        }
        assert_eq!(engine.beliefs()[1], 3, "adaptive R2 fires after 2 misses");
        assert_eq!(engine.r2_limits()[1], 4, "limit doubled after the fire");
        // Second epoch: restore the belief and watch the backed-off limit
        // tolerate twice as many silent intervals.
        engine.set_beliefs(vec![1, 2, 3]);
        for k in 0..4 {
            assert_eq!(engine.beliefs()[1], 2, "no second fallback before miss {k}");
            let _ =
                engine.run_interval_with_candidates(&[1, 1, 1], &mu, &[1], &mut channel, &mut rng);
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
        let mut engine = FaultyDpEngine::new(DpConfig::new(timing()), n)
            .with_churn(ChurnSchedule::new(LinkId::new(0), 0, 10))
            .with_recovery(RecoveryConfig::new().with_adaptive_miss_limit(1, 16));
        let mut rng = SeedStream::new(8).rng(2);
        let mut channel = reliable(n);
        let mu = [1e-9; 3];
        for _ in 0..10 {
            let _ =
                engine.run_interval_with_candidates(&[1, 1, 1], &mu, &[1], &mut channel, &mut rng);
            if engine.beliefs()[1] != 2 {
                engine.set_beliefs(vec![1, 2, 3]); // re-arm the lo side after each fire
            }
        }
        assert!(engine.r2_limits()[1] > 2, "fires backed the limit off");
        // Upper neighbor is back: its claims now reset and decay the limit.
        for _ in 10..20 {
            let _ =
                engine.run_interval_with_candidates(&[1, 1, 1], &mu, &[1], &mut channel, &mut rng);
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
            let mut engine = FaultyDpEngine::new(DpConfig::new(timing()), 3);
            if let Some(h) = hidden {
                engine = engine.with_hidden(h);
            }
            let mut rng = SeedStream::new(8).rng(2);
            let mut channel = reliable(3);
            let mu = [1e-9; 3];
            let mut fell_back_at = None;
            for k in 0..20 {
                let _ = engine.run_interval_with_candidates(
                    &[1, 1, 1],
                    &mu,
                    &[1],
                    &mut channel,
                    &mut rng,
                );
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
        let mut engine = FaultyDpEngine::new(DpConfig::new(timing()), n)
            .with_churn(ChurnSchedule::new(LinkId::new(2), 2, 3));
        let mut rng = SeedStream::new(21).rng(2);
        let mut channel = reliable(n);
        let mut events = Vec::new();
        for _ in 0..8 {
            let _ = engine.run_interval(&[1; 4], &[0.5; 4], &mut channel, &mut rng);
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
        let mut engine = FaultyDpEngine::new(DpConfig::new(timing()), n);
        engine.set_blocked(0, true);
        assert!(engine.is_blocked(0));
        let mut rng = SeedStream::new(4).rng(2);
        let mut channel = reliable(n);
        for _ in 0..10 {
            let r = engine.run_interval(&[1; 3], &[0.5; 3], &mut channel, &mut rng);
            assert_eq!(r.outcome.deliveries[0], 0, "a blocked link never sends");
            assert_eq!(r.outcome.attempts[0], 0);
        }
        // Unblocking re-admits it through the normal claim mechanism.
        engine.set_blocked(0, false);
        let mut delivered = 0;
        for _ in 0..50 {
            let r = engine.run_interval(&[1; 3], &[0.5; 3], &mut channel, &mut rng);
            delivered += r.outcome.deliveries[0];
        }
        assert!(delivered > 0, "unblocked link resumes service");
    }

    #[test]
    fn poisson_churn_and_bursty_sensing_survive_at_engine_level() {
        let n = 6;
        let mut engine = FaultyDpEngine::new(DpConfig::new(timing()), n)
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
            let _ = engine.run_interval(&[1; 6], &[0.4; 6], &mut channel, &mut rng);
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
            let _ = engine.run_interval(&[1; 6], &[0.4; 6], &mut channel, &mut rng);
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
                FaultyDpEngine::new(DpConfig::new(timing()), n).with_fault_model(fault);
            let mut rng = SeedStream::new(12).rng(2);
            let mut channel = reliable(n);
            let mut reports = Vec::new();
            for _ in 0..120 {
                reports.push(engine.run_interval(&[1; 4], &[0.5; 4], &mut channel, &mut rng));
            }
            (reports, engine.beliefs().to_vec())
        };
        assert_eq!(run(true), run(false));
    }
}
