//! The fault-free DP interval engine: Algorithm 2 in
//! `O(min(N, deadline/slot))` work per interval.
//!
//! # Walking priorities instead of slots
//!
//! A slot-by-slot simulation replays every slot boundary: at each of up to
//! `B ≈ deadline/slot` boundaries it decrements all `N` backoff counters
//! and scans for links whose counter reached zero. That is `O(N × B)` per
//! interval — ~2.2 × 10⁷ counter touches at `N = 10 000` video links —
//! even though at most `⌊deadline/airtime⌋ ≈ 61` links ever transmit.
//!
//! Eq. 6 makes the backoff counters *deterministic in the priority order*:
//! a non-candidate with priority `s` starts at counter
//! `(s − 1) + 2·|{pairs with C + 1 < s}|`, and the two members of swap pair
//! `j` (upper priority `C`) occupy counters in `[C − 1 + 2j, C + 2 + 2j]`
//! depending only on their private coins. Three structural facts follow:
//!
//! 1. **All counters are distinct** and a link with initial counter `c`
//!    acts at slot boundary `k = c` (counters decrement once per processed
//!    boundary after the first). Walking links in priority order — with a
//!    local two-element sort inside each pair block — visits them in
//!    strictly increasing counter order. No per-boundary scan is needed.
//! 2. **Idle gaps collapse**: between two consecutive actors the interval
//!    advances by whole idle slots, so the walk jumps `gap` boundaries in
//!    O(1) arithmetic (bounded by `⌈(deadline − t)/slot⌉` so the
//!    deadline-stop boundary is exact).
//! 3. **Carrier-sense checks become bitset lookups**: "busy at boundary
//!    `k`" means "a transmission starts at `k`", so the walk records each
//!    transmission boundary in a [`SenseBoard`] and the Eq. 7/8 checks
//!    (counter-at-1, i.e. boundary `initial − 1`) and the Remark-4 concede
//!    check (boundary after a claim that did not fit) are resolved *after*
//!    the walk as O(1) queries, guarded by the processed bound `B` (a
//!    boundary the slot-by-slot run never reaches means "check never ran").
//!
//! The kernel consumes the RNG in slot order — shared candidate draw,
//! per-pair coins in candidate order, channel attempts in counter order —
//! so it reproduces the slot-by-slot protocol bit-for-bit: same
//! [`DpIntervalReport`], same σ evolution, same RNG stream position.
//! [`crate::reference::ReferenceNetwork`] is that protocol written per
//! device; the differential tests there and in
//! `tests/batched_equivalence.rs` pin the agreement, and golden
//! fingerprints in the latter pin the decision trace itself.
//!
//! # Allocation discipline
//!
//! All working storage — the struct-of-arrays [`DpState`], the claim
//! board, the reused [`DpIntervalReport`] — is owned by the engine; after
//! a warm-up interval the hot path performs **zero heap allocations**
//! (pinned by `tests/alloc_regression.rs` with a counting allocator).
//! Trace mode is the documented exception: it buffers and sorts events and
//! is meant for debugging, not the hot path.
//!
//! # Input checks
//!
//! * `mu` values of non-candidate links are range-checked only in debug
//!   builds: asserting all `N` per interval would be the dominant cost at
//!   `N = 10 000`. The two candidate links' values are asserted in all
//!   builds; no RNG draw depends on the difference.
//! * Eq. 6's distinct counters are asserted in all builds. A repeated
//!   counter would be a protocol bug, and it panics instead of silently
//!   ending the interval. Modelled collisions live in
//!   [`crate::FaultyDpEngine`].

use rand::Rng;
use rtmac_model::{AdjacentTransposition, LinkId, Permutation};
use rtmac_phy::channel::LossModel;
use rtmac_phy::{Medium, SenseBoard};
use rtmac_sim::{Nanos, SimRng};

use crate::dp::{
    draw_nonadjacent_candidates_into, DpConfig, DpIntervalReport, FrameKind, PairCoins, TraceEvent,
};
use crate::{IntervalOutcome, MacTiming};

/// Sentinel for "no concede check armed" in [`DpState::pair_concede_at`].
const UNARMED: u64 = u64::MAX;

/// Flat struct-of-arrays interval state, owned by the engine so the hot
/// loop never allocates. There are no per-link `counter`/`role`/`done`
/// vectors: per-pair facts live in parallel arrays indexed by pair,
/// per-link facts are derived on the fly from the priority walk.
#[derive(Debug, Clone, Default)]
struct DpState {
    /// Upper priority `C` of pair `j` (sorted, pairwise non-adjacent).
    pair_c: Vec<usize>,
    /// Link index holding priority `C`.
    pair_hi: Vec<usize>,
    /// Link index holding priority `C + 1`.
    pair_lo: Vec<usize>,
    /// Initial backoff counter of the hi member (Eq. 6).
    pair_hi_counter: Vec<u64>,
    /// Initial backoff counter of the lo member (Eq. 6).
    pair_lo_counter: Vec<u64>,
    /// `ξ_hi = −1`: hi wants to move down.
    pair_hi_wants_down: Vec<bool>,
    /// `ξ_lo = +1`: lo wants to move up.
    pair_lo_wants_up: Vec<bool>,
    /// lo actually began a transmission (Eq. 9's `R_i + R_j ≥ 1`).
    pair_lo_transmitted: Vec<bool>,
    /// Boundary whose busy bit decides hi's Remark-4 concede ([`UNARMED`]
    /// when hi's claim fitted or hi wanted down anyway).
    pair_concede_at: Vec<u64>,
    /// Bit-per-boundary transmission-start record.
    board: SenseBoard,
    /// The drawn candidate set (reused buffer).
    candidates: Vec<usize>,
    /// Shuffle scratch for the stars-and-bars candidate draw.
    draw_pool: Vec<usize>,
    /// Links whose per-link outcome entries were written this interval;
    /// clearing only these keeps the reset O(transmitters), not O(N).
    touched: Vec<usize>,
    /// Trace mode only: events keyed by (boundary, within-boundary seq)
    /// for the post-walk merge into slot order.
    trace_tmp: Vec<(u64, u32, TraceEvent)>,
    /// Trace mode only: start time of every processed boundary.
    boundary_times: Vec<Nanos>,
    /// Debug-postcondition scratch (σ bijection check without `vec!`).
    seen: Vec<bool>,
}

/// Where an interval's coin flips come from: drawn from `μ` (Eq. 5) or
/// injected verbatim, one [`PairCoins`] per drawn candidate pair.
#[derive(Clone, Copy)]
enum CoinSource<'a> {
    Mu(&'a [f64]),
    Fixed(&'a [PairCoins]),
}

/// What happened at a claimant's action boundary.
enum Claim {
    /// The deadline was reached before the claimant acted.
    Stopped,
    /// Nothing to send (no data, no pending empty claim); idle boundary.
    Idle,
    /// The frame no longer fit before the deadline (Remark 4).
    NoFit,
    /// A transmission started at the claimant's boundary.
    Transmitted,
}

/// The walking state of one interval: current time, next unprocessed
/// boundary, and the sinks the walk writes into.
struct Walk<'a> {
    timing: &'a MacTiming,
    slot: Nanos,
    deadline: Nanos,
    arrivals: &'a [u32],
    channel: &'a mut dyn LossModel,
    rng: &'a mut SimRng,
    board: &'a mut SenseBoard,
    outcome: &'a mut IntervalOutcome,
    touched: &'a mut Vec<usize>,
    trace: Option<TraceRec<'a>>,
    medium: Medium,
    t: Nanos,
    next_boundary: u64,
    stopped: bool,
}

/// Trace-mode sinks (separate struct so the hot path carries one `Option`).
struct TraceRec<'a> {
    events: &'a mut Vec<(u64, u32, TraceEvent)>,
    times: &'a mut Vec<Nanos>,
}

impl Walk<'_> {
    /// Processes `count` idle boundaries: one idle slot each.
    fn advance_idle(&mut self, count: u64) {
        if let Some(tr) = &mut self.trace {
            for i in 0..count {
                tr.times.push(self.t + self.slot * i);
            }
        }
        self.outcome.idle_slots += count;
        self.t += self.slot * count;
        self.next_boundary += count;
    }

    /// Processes the current boundary as idle (claimant had nothing to
    /// send, or its frame did not fit).
    fn idle_boundary(&mut self) {
        self.advance_idle(1);
    }

    /// Advances to boundary `counter` and lets `link` act there.
    ///
    /// `pending_empty` is Step 2's flag: the link is a swap candidate
    /// with no arrivals, so it claims its backoff slot with an empty frame.
    ///
    /// # Panics
    ///
    /// Panics if `counter` repeats or precedes an earlier claimant's: Eq. 6
    /// makes the counters distinct, and the walk visits them in order.
    fn claim(&mut self, link: usize, counter: u64, pending_empty: bool) -> Claim {
        debug_assert!(!self.stopped, "claim after deadline stop");
        assert!(
            counter >= self.next_boundary,
            "claimants must arrive in distinct, increasing counter order"
        );
        // A boundary where t >= deadline is never processed.
        if self.t >= self.deadline {
            self.stopped = true;
            return Claim::Stopped;
        }
        // Idle gap: every boundary strictly before `counter` belongs to no
        // remaining claimant, so each processed one adds exactly one idle
        // slot. `m` is how many boundaries fit before the deadline
        // (t + (m−1)·slot < deadline ≤ t + m·slot), so the stop boundary
        // lands exactly where a slot-by-slot run would stop.
        let gap = counter - self.next_boundary;
        let remaining = self.deadline - self.t;
        let m = remaining / self.slot + u64::from(!(remaining % self.slot).is_zero());
        if gap >= m {
            self.advance_idle(m);
            self.stopped = true;
            return Claim::Stopped;
        }
        self.advance_idle(gap);
        // Boundary `counter` is processed (t < deadline holds because
        // gap ≤ m − 1).
        let has_data = self.arrivals[link] > 0;
        if !has_data && !pending_empty {
            self.idle_boundary();
            return Claim::Idle;
        }
        let airtime = if has_data {
            self.timing.data_airtime_for(link)
        } else {
            self.timing.empty_airtime()
        };
        if !self.timing.fits(self.t, airtime) {
            // Remark 4: not enough time left — idle out the interval.
            self.idle_boundary();
            return Claim::NoFit;
        }

        // Transmission boundary: record the claim bit, then hold the
        // medium back-to-back (Step 6).
        assert!(
            !self.board.busy_at(counter as usize),
            "two claimants at boundary {counter}: DP counters must be distinct"
        );
        self.board.record_start(counter as usize);
        if let Some(tr) = &mut self.trace {
            tr.times.push(self.t);
        }
        let mut now = self.t;
        let mut seq: u32 = 1;
        if has_data {
            debug_assert!(!pending_empty, "pending empty claims require zero arrivals");
            let mut data = self.arrivals[link];
            self.touched.push(link);
            while data > 0 && self.timing.fits(now, airtime) {
                let tx = self.medium.transmit(now, &[airtime]);
                self.outcome.attempts[link] += 1;
                let delivered = self.channel.attempt(LinkId::new(link), self.rng);
                if delivered {
                    data -= 1;
                    self.outcome.deliveries[link] += 1;
                    self.outcome.latency_sum[link] += tx.ends_at;
                }
                if let Some(tr) = &mut self.trace {
                    tr.events.push((
                        counter,
                        seq,
                        TraceEvent::TxStart {
                            link: LinkId::new(link),
                            at: now,
                            kind: FrameKind::Data,
                        },
                    ));
                    tr.events.push((
                        counter,
                        seq + 1,
                        TraceEvent::TxEnd {
                            link: LinkId::new(link),
                            at: tx.ends_at,
                            delivered,
                        },
                    ));
                    seq += 2;
                }
                now = tx.ends_at;
            }
        } else {
            let tx = self.medium.transmit(now, &[airtime]);
            self.outcome.empty_packets += 1;
            if let Some(tr) = &mut self.trace {
                tr.events.push((
                    counter,
                    seq,
                    TraceEvent::TxStart {
                        link: LinkId::new(link),
                        at: now,
                        kind: FrameKind::Empty,
                    },
                ));
                tr.events.push((
                    counter,
                    seq + 1,
                    TraceEvent::TxEnd {
                        link: LinkId::new(link),
                        at: tx.ends_at,
                        delivered: false,
                    },
                ));
            }
            now = tx.ends_at;
        }
        self.t = now + self.slot; // one idle slot before the next boundary
        self.next_boundary = counter + 1;
        Claim::Transmitted
    }
}

/// The DP protocol engine (Algorithm 2). Persists the priority
/// permutation `σ` across intervals; everything else is per-interval
/// state, `O(min(N, deadline/slot))` work per interval.
///
/// # Example
///
/// ```
/// use rtmac_mac::{BatchedDpEngine, DpConfig, MacTiming};
/// use rtmac_phy::channel::Bernoulli;
/// use rtmac_phy::PhyProfile;
/// use rtmac_sim::{Nanos, SeedStream};
///
/// let timing = MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_millis(2), 100);
/// let mut engine = BatchedDpEngine::new(DpConfig::new(timing), 4);
/// let mut channel = Bernoulli::reliable(4);
/// let mut rng = SeedStream::new(7).rng(0);
/// // One packet per link, neutral coins: everything is delivered
/// // collision-free in priority order.
/// let report = engine.step(&[1, 1, 1, 1], &[0.5; 4], &mut channel, &mut rng);
/// assert_eq!(report.outcome.total_deliveries(), 4);
/// assert_eq!(report.outcome.collisions, 0);
/// ```
#[derive(Debug, Clone)]
pub struct BatchedDpEngine {
    config: DpConfig,
    sigma: Permutation,
    state: DpState,
    report: DpIntervalReport,
}

impl BatchedDpEngine {
    /// Creates an engine for `n_links` links with the identity priority
    /// ordering. Buffers whose size varies between intervals are sized
    /// here; the per-pair arrays grow to their fixed size on the first
    /// step, so stepping allocates nothing after that.
    ///
    /// # Panics
    ///
    /// Panics if `n_links == 0`.
    #[must_use]
    pub fn new(config: DpConfig, n_links: usize) -> Self {
        let want = config.swap_pairs().min(n_links / 2);
        // The claim board covers every boundary an interval can
        // process: it stops at the deadline after at most
        // `deadline/slot + 1` boundaries (each advances t by ≥ one slot)
        // and runs out of claimants after `max counter + 1 ≤ n + 2·pairs`
        // boundaries. An injected candidate set may hold up to `⌊n/2⌋`
        // pairs, more than the configured draw.
        let by_deadline = (config.timing().deadline() / config.timing().slot()) as usize + 2;
        let by_counters = n_links + 2 * (n_links / 2) + 2;
        let horizon = by_deadline.min(by_counters);
        let mut state = DpState {
            board: SenseBoard::new(horizon),
            ..DpState::default()
        };
        state.touched.reserve(n_links.min(horizon));
        BatchedDpEngine {
            config,
            sigma: Permutation::identity(n_links),
            state,
            report: DpIntervalReport {
                outcome: IntervalOutcome::empty(n_links),
                candidates: Vec::new(),
                swaps: Vec::with_capacity(want),
                trace: Vec::new(),
            },
        }
    }

    /// The current priority permutation `σ(k−1)`.
    #[must_use]
    pub fn sigma(&self) -> &Permutation {
        &self.sigma
    }

    /// Overrides the priority permutation.
    ///
    /// # Panics
    ///
    /// Panics if the permutation size differs from the engine's link count.
    pub fn set_sigma(&mut self, sigma: Permutation) {
        assert_eq!(
            sigma.len(),
            self.sigma.len(),
            "permutation size must match link count"
        );
        self.sigma = sigma;
    }

    /// Number of links.
    #[must_use]
    pub fn n_links(&self) -> usize {
        self.sigma.len()
    }

    /// The engine configuration.
    #[must_use]
    pub fn config(&self) -> &DpConfig {
        &self.config
    }

    /// Runs one interval of the DP protocol (Steps 1–7 of Algorithm 2),
    /// drawing the shared candidate set internally.
    ///
    /// * `arrivals[n]` — packets arriving at link `n` at the interval start.
    /// * `mu[n]` — the coin parameter `μ_n ∈ (0, 1)` of Eq. 5. The DB-DP
    ///   algorithm computes these from delivery debts (Eq. 14); any other
    ///   choice yields the generic protocol of Section IV.
    ///
    /// The returned report is an engine-owned buffer, valid until the next
    /// step; clone it to keep it.
    ///
    /// # Panics
    ///
    /// Panics if `arrivals`, `mu`, or the channel's link count disagree
    /// with the engine's, or (candidate links always, every link in debug
    /// builds) if some `μ_n ∉ (0, 1)`. Also panics if two links ever share
    /// a backoff counter, which Eq. 6 rules out for every valid input.
    pub fn step(
        &mut self,
        arrivals: &[u32],
        mu: &[f64],
        channel: &mut dyn LossModel,
        rng: &mut SimRng,
    ) -> &DpIntervalReport {
        self.run(arrivals, CoinSource::Mu(mu), None, channel, rng)
    }

    /// Runs one interval with an explicitly chosen candidate set — the
    /// "common random seed" of Step 1 made external, so tests and
    /// multi-node deployments can inject the shared draw. `candidates`
    /// must be sorted upper priorities `C ∈ 1..N`, pairwise non-adjacent.
    ///
    /// # Panics
    ///
    /// Same as [`BatchedDpEngine::step`], plus a panic if the candidate
    /// set is malformed.
    pub fn step_with_candidates(
        &mut self,
        arrivals: &[u32],
        mu: &[f64],
        candidates: &[usize],
        channel: &mut dyn LossModel,
        rng: &mut SimRng,
    ) -> &DpIntervalReport {
        self.run(arrivals, CoinSource::Mu(mu), Some(candidates), channel, rng)
    }

    /// Runs one interval with both the candidate draw *and* the private
    /// coin flips injected — every random protocol decision except the
    /// channel made explicit. `coins[j]` gives the ξ outcomes of pair
    /// `candidates[j]`; `rng` is only consumed by the channel model.
    /// This is the model checker's entry point: it enumerates all
    /// `(candidates, coins, channel)` combinations exhaustively.
    ///
    /// # Panics
    ///
    /// Same as [`BatchedDpEngine::step_with_candidates`], plus a panic if
    /// `coins` and `candidates` disagree in length.
    pub fn step_with_coins(
        &mut self,
        arrivals: &[u32],
        candidates: &[usize],
        coins: &[PairCoins],
        channel: &mut dyn LossModel,
        rng: &mut SimRng,
    ) -> &DpIntervalReport {
        assert_eq!(
            coins.len(),
            candidates.len(),
            "one PairCoins per candidate pair"
        );
        self.run(
            arrivals,
            CoinSource::Fixed(coins),
            Some(candidates),
            channel,
            rng,
        )
    }

    /// The shared interval body.
    #[allow(clippy::too_many_lines)] // one interval, one function: the walk,
                                     // the sense resolution, and the commit are a single documented unit.
    fn run(
        &mut self,
        arrivals: &[u32],
        coins: CoinSource<'_>,
        inject: Option<&[usize]>,
        channel: &mut dyn LossModel,
        rng: &mut SimRng,
    ) -> &DpIntervalReport {
        let n = self.sigma.len();
        assert_eq!(arrivals.len(), n, "arrivals must have one entry per link");
        assert_eq!(channel.n_links(), n, "channel link count mismatch");
        if let CoinSource::Mu(mu) = coins {
            assert_eq!(mu.len(), n, "mu must have one entry per link");
            #[cfg(debug_assertions)]
            for (i, &m) in mu.iter().enumerate() {
                debug_assert!(m > 0.0 && m < 1.0, "mu[{i}] = {m} must lie in (0, 1)");
            }
        }

        let Self {
            config,
            sigma,
            state,
            report,
        } = self;
        let timing = config.timing();
        let tracing = config.trace();
        let DpState {
            pair_c,
            pair_hi,
            pair_lo,
            pair_hi_counter,
            pair_lo_counter,
            pair_hi_wants_down,
            pair_lo_wants_up,
            pair_lo_transmitted,
            pair_concede_at,
            board,
            candidates,
            draw_pool,
            touched,
            trace_tmp,
            boundary_times,
            seen,
        } = state;

        // ------------------------------------------------------ reset
        for &l in touched.iter() {
            report.outcome.deliveries[l] = 0;
            report.outcome.attempts[l] = 0;
            report.outcome.latency_sum[l] = Nanos::ZERO;
        }
        touched.clear();
        report.outcome.empty_packets = 0;
        report.outcome.collisions = 0;
        report.outcome.busy_time = Nanos::ZERO;
        report.outcome.idle_slots = 0;
        report.outcome.leftover = Nanos::ZERO;
        report.candidates.clear();
        report.swaps.clear();
        report.trace.clear();
        board.reset();
        trace_tmp.clear();
        boundary_times.clear();

        // ------------------------------------- Step 1: candidate draw
        match inject {
            Some(c) => {
                candidates.clear();
                candidates.extend_from_slice(c);
            }
            None => {
                draw_nonadjacent_candidates_into(n, config.swap_pairs(), rng, candidates, draw_pool)
            }
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
        report.candidates.extend_from_slice(candidates);

        // ------------------ Steps 2–4: coins and counters, per pair.
        // Coins are drawn in candidate order, hi before lo (Eq. 5),
        // unless injected verbatim.
        pair_c.clear();
        pair_hi.clear();
        pair_lo.clear();
        pair_hi_counter.clear();
        pair_lo_counter.clear();
        pair_hi_wants_down.clear();
        pair_lo_wants_up.clear();
        pair_lo_transmitted.clear();
        pair_concede_at.clear();
        for (j, &c) in candidates.iter().enumerate() {
            let hi = sigma.link_with_priority(c).index();
            let lo = sigma.link_with_priority(c + 1).index();
            let (xi_hi_up, xi_lo_up) = match coins {
                CoinSource::Mu(mu) => {
                    for link in [hi, lo] {
                        let m = mu[link];
                        assert!(m > 0.0 && m < 1.0, "mu[{link}] = {m} must lie in (0, 1)");
                    }
                    (rng.random_bool(mu[hi]), rng.random_bool(mu[lo]))
                }
                CoinSource::Fixed(flips) => (flips[j].hi_up, flips[j].lo_up),
            };
            let hi_wants_down = !xi_hi_up;
            let lo_wants_up = xi_lo_up;
            let off = 2 * j as u64;
            // Eq. 6: counter = σ_n − ξ (+ 2 per completed earlier pair).
            let hi_counter = if hi_wants_down {
                c as u64 + 1 + off
            } else {
                c as u64 - 1 + off
            };
            let lo_counter = if lo_wants_up {
                c as u64 + off
            } else {
                c as u64 + 2 + off
            };
            pair_c.push(c);
            pair_hi.push(hi);
            pair_lo.push(lo);
            pair_hi_counter.push(hi_counter);
            pair_lo_counter.push(lo_counter);
            pair_hi_wants_down.push(hi_wants_down);
            pair_lo_wants_up.push(lo_wants_up);
            pair_lo_transmitted.push(false);
            pair_concede_at.push(UNARMED);
        }
        let n_pairs = pair_c.len();

        // Trace mode: every link's BackoffSet comes first, in link order.
        // O(N · pairs) here is fine — trace mode is explicitly off the hot
        // path.
        if tracing {
            for link in 0..n {
                let sigma_n = sigma.priority_of(LinkId::new(link));
                let mut counter = None;
                for j in 0..n_pairs {
                    if pair_hi[j] == link {
                        counter = Some(pair_hi_counter[j]);
                    } else if pair_lo[j] == link {
                        counter = Some(pair_lo_counter[j]);
                    }
                }
                let counter = match counter {
                    Some(c) => c,
                    None => {
                        let pairs_above =
                            pair_c.iter().filter(|&&c| c + 1 < sigma_n).count() as u64;
                        (sigma_n as u64 - 1) + 2 * pairs_above
                    }
                };
                report.trace.push(TraceEvent::BackoffSet {
                    link: LinkId::new(link),
                    counter,
                });
            }
        }

        // --------------------- Phase 1: the priority walk (Steps 4/6).
        // Claimants are visited in strictly increasing counter order: the
        // priority sweep 1..=N, with the two members of each pair block
        // locally ordered by counter (pair j's counters lie strictly
        // between its neighbours' — see the module docs).
        let mut walk = Walk {
            timing,
            slot: timing.slot(),
            deadline: timing.deadline(),
            arrivals,
            channel,
            rng,
            board,
            outcome: &mut report.outcome,
            touched,
            trace: if tracing {
                Some(TraceRec {
                    events: trace_tmp,
                    times: boundary_times,
                })
            } else {
                None
            },
            medium: Medium::new(),
            t: Nanos::ZERO,
            next_boundary: 0,
            stopped: false,
        };
        let mut pair_idx = 0usize;
        let mut p = 1usize;
        'walk: while p <= n {
            if pair_idx < n_pairs && pair_c[pair_idx] == p {
                let j = pair_idx;
                let hi_first = pair_hi_counter[j] < pair_lo_counter[j];
                for step in 0..2 {
                    let is_hi = (step == 0) == hi_first;
                    let (link, counter) = if is_hi {
                        (pair_hi[j], pair_hi_counter[j])
                    } else {
                        (pair_lo[j], pair_lo_counter[j])
                    };
                    // Step 2: a candidate with no arrivals claims its
                    // backoff slot with an empty frame.
                    let pending_empty = arrivals[link] == 0;
                    match walk.claim(link, counter, pending_empty) {
                        Claim::Stopped => break 'walk,
                        Claim::Transmitted => {
                            if !is_hi {
                                pair_lo_transmitted[j] = true;
                            }
                        }
                        Claim::NoFit => {
                            // Remark 4: a *staying* hi whose claim no
                            // longer fits concedes iff a transmission
                            // starts at exactly the next boundary.
                            if is_hi && !pair_hi_wants_down[j] {
                                pair_concede_at[j] = counter + 1;
                            }
                        }
                        Claim::Idle => {}
                    }
                }
                p += 2;
                pair_idx += 1;
            } else {
                let link = sigma.link_with_priority(p).index();
                let counter = (p as u64 - 1) + 2 * pair_idx as u64;
                if let Claim::Stopped = walk.claim(link, counter, false) {
                    break 'walk;
                }
                p += 1;
            }
        }
        // The first boundary the interval does *not* process: either the
        // deadline-stop boundary or `max counter + 1` once every claimant
        // acted. Sense checks at boundaries ≥ b_end never ran.
        let b_end = walk.next_boundary;
        let medium_collisions = walk.medium.stats().collisions;
        let medium_busy_time = walk.medium.stats().busy_time;
        let medium_busy_until = walk.medium.busy_until();
        report.outcome.collisions += medium_collisions;
        report.outcome.busy_time = medium_busy_time;
        report.outcome.leftover = timing.deadline().saturating_sub(medium_busy_until);
        if tracing {
            debug_assert_eq!(
                boundary_times.len() as u64,
                b_end,
                "one recorded time per processed boundary"
            );
        }

        // ------- Phase 2: bitset sense resolution + commit (Steps 5/7).
        for j in 0..n_pairs {
            let mut hi_busy_at_1 = false;
            let mut lo_idle_at_1 = false;
            if pair_hi_wants_down[j] {
                // Eq. 7: hi senses at the boundary where its counter
                // stands at 1, i.e. boundary `initial − 1`.
                let s = pair_hi_counter[j] - 1;
                if s < b_end {
                    let busy = board.busy_at(s as usize);
                    hi_busy_at_1 = busy;
                    if tracing {
                        trace_tmp.push((
                            s,
                            0,
                            TraceEvent::SenseCheck {
                                link: LinkId::new(pair_hi[j]),
                                at: boundary_times[s as usize],
                                busy,
                            },
                        ));
                    }
                }
            }
            if pair_lo_wants_up[j] {
                // Eq. 8: same construction for lo.
                let s = pair_lo_counter[j] - 1;
                if s < b_end {
                    let busy = board.busy_at(s as usize);
                    lo_idle_at_1 = !busy;
                    if tracing {
                        trace_tmp.push((
                            s,
                            0,
                            TraceEvent::SenseCheck {
                                link: LinkId::new(pair_lo[j]),
                                at: boundary_times[s as usize],
                                busy,
                            },
                        ));
                    }
                }
            }
            let ca = pair_concede_at[j];
            let hi_concede = ca != UNARMED && ca < b_end && board.busy_at(ca as usize);
            let hi_swaps = (pair_hi_wants_down[j] && hi_busy_at_1) || hi_concede;
            let lo_swaps = lo_idle_at_1 && pair_lo_wants_up[j] && pair_lo_transmitted[j];
            debug_assert_eq!(
                hi_swaps, lo_swaps,
                "swap handshake diverged for pair C = {} (σ = {})",
                pair_c[j], sigma
            );
            if hi_swaps && lo_swaps {
                let t = AdjacentTransposition::new(pair_c[j]);
                sigma.apply(t);
                report.swaps.push(t);
                if tracing {
                    trace_tmp.push((
                        u64::MAX,
                        j as u32,
                        TraceEvent::SwapCommitted { upper: pair_c[j] },
                    ));
                }
            }
        }

        // Trace mode: merge the out-of-order sense checks back into the
        // per-boundary emission order of a slot-by-slot run. Keys are unique (sense
        // boundaries are pairwise distinct; tx events use seq ≥ 1).
        if tracing {
            trace_tmp.sort_unstable_by_key(|&(b, s, _)| (b, s));
            report.trace.extend(trace_tmp.iter().map(|&(_, _, e)| e));
        }

        // Interval postconditions: σ(k+1) is still a bijection of 1..=N,
        // and the committed swaps are a strictly increasing subset of the
        // drawn candidates (debug only, using engine-owned scratch instead
        // of a fresh `vec!`).
        #[cfg(debug_assertions)]
        {
            seen.clear();
            seen.resize(n, false);
            for &p in sigma.priorities() {
                debug_assert!(
                    p >= 1 && p <= n && !seen[p - 1],
                    "σ is no longer a permutation after interval commit: {sigma}"
                );
                seen[p - 1] = true;
            }
            debug_assert!(
                report.swaps.len() <= report.candidates.len(),
                "more swaps committed ({}) than pairs drawn ({})",
                report.swaps.len(),
                report.candidates.len()
            );
            for w in report.swaps.windows(2) {
                debug_assert!(
                    w[0].upper() < w[1].upper(),
                    "a drawn pair committed two swaps (uppers {} and {})",
                    w[0].upper(),
                    w[1].upper()
                );
            }
            for t in report.swaps.iter() {
                debug_assert!(
                    report.candidates.contains(&t.upper()),
                    "committed swap at priority {} was never drawn as a candidate",
                    t.upper()
                );
            }
        }
        #[cfg(not(debug_assertions))]
        let _ = seen;

        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rtmac_phy::channel::{Bernoulli, Scripted};
    use rtmac_phy::PhyProfile;
    use rtmac_sim::SeedStream;

    fn timing_ms(ms: u64, payload: u32) -> MacTiming {
        MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_millis(ms), payload)
    }

    fn engine(n: usize) -> BatchedDpEngine {
        BatchedDpEngine::new(DpConfig::new(timing_ms(20, 1500)), n)
    }

    #[test]
    fn reliable_network_delivers_everything_when_capacity_allows() {
        let mut e = engine(4);
        let mut ch = Bernoulli::reliable(4);
        let mut rng = SeedStream::new(1).rng(0);
        let report = e.step(&[3, 2, 1, 4], &[0.5; 4], &mut ch, &mut rng);
        assert_eq!(report.outcome.deliveries, [3, 2, 1, 4]);
        assert_eq!(report.outcome.total_attempts(), 10);
        assert_eq!(report.outcome.collisions, 0);
    }

    #[test]
    fn is_collision_free_across_many_random_intervals() {
        let mut e = engine(10);
        let mut ch = Bernoulli::new(vec![0.7; 10]).unwrap();
        let mut rng = SeedStream::new(2).rng(0);
        for k in 0..200 {
            let arrivals: Vec<u32> = (0..10).map(|i| ((k + i) % 4) as u32).collect();
            let report = e.step(&arrivals, &[0.3; 10], &mut ch, &mut rng);
            assert_eq!(report.outcome.collisions, 0, "collision at interval {k}");
        }
    }

    #[test]
    fn priority_determines_service_order() {
        // Overload the interval so only the highest-priority links get
        // through: N links each with a full buffer.
        let timing = timing_ms(2, 100); // 16 transmissions fit
        let mut e = BatchedDpEngine::new(DpConfig::new(timing).with_swap_pairs(0), 4);
        let mut ch = Bernoulli::reliable(4);
        let mut rng = SeedStream::new(3).rng(0);
        // Reverse priorities: link 3 is highest.
        e.set_sigma(Permutation::from_priorities(vec![4, 3, 2, 1]).unwrap());
        let report = e.step(&[10, 10, 10, 10], &[0.5; 4], &mut ch, &mut rng);
        // 16 slots: link3 gets 10, link2 gets 6 (minus backoff overhead,
        // possibly 5), links 1 and 0 get nothing.
        assert_eq!(report.outcome.deliveries[3], 10);
        assert!(report.outcome.deliveries[2] >= 4);
        assert_eq!(report.outcome.deliveries[0], 0);
        assert!(report.swaps.is_empty());
    }

    #[test]
    fn swap_pairs_zero_never_reorders() {
        let mut e = BatchedDpEngine::new(DpConfig::new(timing_ms(20, 1500)).with_swap_pairs(0), 6);
        let before = e.sigma().clone();
        let mut ch = Bernoulli::reliable(6);
        let mut rng = SeedStream::new(4).rng(0);
        for _ in 0..50 {
            let r = e.step(&[1; 6], &[0.5; 6], &mut ch, &mut rng);
            assert!(r.candidates.is_empty());
            assert!(r.swaps.is_empty());
        }
        assert_eq!(e.sigma(), &before);
    }

    #[test]
    fn forced_swap_exchanges_the_candidate_pair() {
        // μ near 1 for the lower candidate and near 0 for the upper one
        // makes ξ_lo = +1 and ξ_hi = −1 almost surely, so candidates swap
        // whenever drawn. With N = 2 the pair is always (1, 2).
        let mut e = engine(2);
        let mut ch = Bernoulli::reliable(2);
        let mut rng = SeedStream::new(5).rng(0);
        // link0 has priority 1 (upper candidate): wants down with 1−μ0.
        let mu = [1e-9, 1.0 - 1e-9];
        let r = e.step(&[1, 1], &mu, &mut ch, &mut rng);
        assert_eq!(r.candidates, [1]);
        assert_eq!(r.swaps, [AdjacentTransposition::new(1)]);
        assert_eq!(e.sigma().priorities(), [2, 1]);
    }

    #[test]
    fn refused_swap_keeps_priorities() {
        // μ flipped: upper wants to stay up, lower wants to stay down.
        let mut e = engine(2);
        let mut ch = Bernoulli::reliable(2);
        let mut rng = SeedStream::new(6).rng(0);
        let mu = [1.0 - 1e-9, 1e-9];
        let r = e.step(&[1, 1], &mu, &mut ch, &mut rng);
        assert!(r.swaps.is_empty());
        assert_eq!(e.sigma().priorities(), [1, 2]);
    }

    #[test]
    fn empty_packets_claim_priority_without_arrivals() {
        // No arrivals anywhere: only the two candidates transmit empty
        // packets, and no data attempts occur.
        let mut e = engine(3);
        let mut ch = Bernoulli::reliable(3);
        let mut rng = SeedStream::new(7).rng(0);
        let mu = [1e-9, 1e-9, 1.0 - 1e-9];
        let r = e.step(&[0, 0, 0], &mu, &mut ch, &mut rng);
        assert_eq!(r.outcome.total_attempts(), 0);
        assert_eq!(r.outcome.total_deliveries(), 0);
        assert_eq!(r.outcome.empty_packets, 2);
    }

    #[test]
    fn no_swap_when_interval_too_short_for_any_frame() {
        // Deadline shorter than even an empty frame: nothing can transmit,
        // so the handshake cannot complete (the R_i + R_j >= 1 term of
        // Eq. 9) and priorities stay.
        let timing = MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_micros(40), 1500);
        let mut e = BatchedDpEngine::new(DpConfig::new(timing), 2);
        let mut ch = Bernoulli::reliable(2);
        let mut rng = SeedStream::new(8).rng(0);
        let mu = [1e-9, 1.0 - 1e-9]; // would swap if they could transmit
        for _ in 0..20 {
            let r = e.step(&[0, 0], &mu, &mut ch, &mut rng);
            assert!(r.swaps.is_empty());
            assert_eq!(r.outcome.empty_packets, 0);
        }
        assert_eq!(e.sigma().priorities(), [1, 2]);
    }

    #[test]
    fn unreliable_channel_retries_until_deadline() {
        // One link, p = 0.5: attempts keep going until the buffer drains or
        // the interval ends; attempts >= deliveries.
        let mut e = BatchedDpEngine::new(DpConfig::new(timing_ms(2, 100)), 1);
        let mut ch = Bernoulli::new(vec![0.5]).unwrap();
        let mut rng = SeedStream::new(9).rng(0);
        let r = e.step(&[8], &[0.5], &mut ch, &mut rng);
        assert!(r.outcome.attempts[0] >= r.outcome.deliveries[0]);
        assert!(r.outcome.attempts[0] <= 16);
        assert!(r.outcome.deliveries[0] <= 8);
    }

    #[test]
    fn backoff_overhead_costs_at_most_a_couple_transmissions() {
        // The paper: DB-DP has "1 or 2 fewer transmissions per interval"
        // than the 60 of LDF in the video setting.
        let mut e = engine(20);
        let mut ch = Bernoulli::reliable(20);
        let mut rng = SeedStream::new(10).rng(0);
        // Saturate: plenty of packets everywhere.
        let r = e.step(&[6; 20], &[0.5; 20], &mut ch, &mut rng);
        let total = r.outcome.total_deliveries();
        assert!(
            (58..=61).contains(&total),
            "expected ~59-61 deliveries, got {total}"
        );
    }

    #[test]
    fn multi_pair_draws_disjoint_pairs_and_swaps_consistently() {
        let mut e = BatchedDpEngine::new(DpConfig::new(timing_ms(20, 1500)).with_swap_pairs(3), 10);
        let mut ch = Bernoulli::reliable(10);
        let mut rng = SeedStream::new(11).rng(0);
        for _ in 0..100 {
            let r = e.step(&[1; 10], &[0.5; 10], &mut ch, &mut rng);
            assert_eq!(r.candidates.len(), 3);
            assert!(r.candidates.windows(2).all(|w| w[1] - w[0] >= 2));
            assert_eq!(r.outcome.collisions, 0);
            // σ must remain a valid permutation.
            assert!(Permutation::from_priorities(e.sigma().priorities().to_vec()).is_ok());
        }
    }

    /// Reproduces Example 2 / Fig. 2 of the paper exactly: N = 4 links,
    /// p_n = 1, one packet each, σ(1) = [1,2,3,4], candidates C = 2. With
    /// ξ_2 = −1 (β_2 = 3) and ξ_3 = +1 (β_3 = 2), links 2 and 3 exchange
    /// priorities and σ(2) = [1,3,2,4]. The trace pins the whole timeline.
    #[test]
    fn paper_example_2_timeline() {
        let slot = Nanos::from_micros(9);
        let airtime = PhyProfile::ieee80211a().packet_exchange_airtime(1500); // 326 µs
        let timing = timing_ms(20, 1500);
        let mut e = BatchedDpEngine::new(DpConfig::new(timing).with_trace(true), 4);
        let mut ch = Bernoulli::reliable(4);
        let mut rng = SeedStream::new(0).rng(0);
        // Paper's link 2 = our link index 1 (wants down: μ ≈ 0);
        // paper's link 3 = our link index 2 (wants up: μ ≈ 1).
        let mu = [0.5, 1e-12, 1.0 - 1e-12, 0.5];
        let report = e
            .step_with_candidates(&[1; 4], &mu, &[2], &mut ch, &mut rng)
            .clone();

        // Backoffs per Eq. 6 / Fig. 2: β = [0, 3, 2, 5].
        let backoffs: Vec<(usize, u64)> = report
            .trace
            .iter()
            .filter_map(|ev| match ev {
                TraceEvent::BackoffSet { link, counter } => Some((link.index(), *counter)),
                _ => None,
            })
            .collect();
        assert_eq!(backoffs, [(0, 0), (1, 3), (2, 2), (3, 5)]);

        // Transmission order and exact start times:
        //   link 0 at t = 0,
        //   link 2 at A + 2 slots (its counter 2 drains in two idle slots),
        //   link 1 at 2A + 3 slots (frozen at 1 during link 2's frame),
        //   link 3 at 3A + 5 slots (β = 5, one decrement after each of the
        //   three frames plus two trailing idle slots).
        let starts: Vec<(usize, Nanos)> = report
            .trace
            .iter()
            .filter_map(|ev| match ev {
                TraceEvent::TxStart { link, at, kind } => {
                    assert_eq!(*kind, FrameKind::Data);
                    Some((link.index(), *at))
                }
                _ => None,
            })
            .collect();
        assert_eq!(
            starts,
            [
                (0, Nanos::ZERO),
                (2, airtime + slot * 2),
                (1, airtime * 2 + slot * 3),
                (3, airtime * 3 + slot * 5),
            ]
        );

        // Both candidates sensed at counter 1: lo heard idle, hi heard busy.
        let checks: Vec<(usize, bool)> = report
            .trace
            .iter()
            .filter_map(|ev| match ev {
                TraceEvent::SenseCheck { link, busy, .. } => Some((link.index(), *busy)),
                _ => None,
            })
            .collect();
        assert_eq!(checks, [(2, false), (1, true)]);

        // The swap committed: σ(2) = [1,3,2,4].
        assert_eq!(report.swaps, [AdjacentTransposition::new(2)]);
        assert!(report
            .trace
            .contains(&TraceEvent::SwapCommitted { upper: 2 }));
        assert_eq!(e.sigma().priorities(), [1, 3, 2, 4]);
        assert_eq!(report.outcome.deliveries, [1, 1, 1, 1]);
    }

    /// All four ξ combinations of a single pair, pinned deterministically:
    /// the swap commits iff (hi wants down) AND (lo wants up), matching
    /// Eq. 9's (1−μ_i)·μ_j structure.
    #[test]
    fn handshake_truth_table() {
        for (hi_up, lo_up, expect_swap) in [
            (true, true, false),   // hi stays, lo wants up -> blocked
            (true, false, false),  // both stay
            (false, true, true),   // hi down, lo up -> swap
            (false, false, false), // hi wants down, lo stays
        ] {
            let mut e = engine(2);
            let mut ch = Bernoulli::reliable(2);
            let mut rng = SeedStream::new(9).rng(0);
            let eps = 1e-12;
            let mu = [
                if hi_up { 1.0 - eps } else { eps },
                if lo_up { 1.0 - eps } else { eps },
            ];
            let r = e.step_with_candidates(&[1, 1], &mu, &[1], &mut ch, &mut rng);
            assert_eq!(
                !r.swaps.is_empty(),
                expect_swap,
                "hi_up={hi_up} lo_up={lo_up}"
            );
            let expected = if expect_swap { [2, 1] } else { [1, 2] };
            assert_eq!(e.sigma().priorities(), expected);
        }
    }

    /// The deadline corner case the paper leaves unspecified: hi chose to
    /// stay (ξ = +1) but its data frame no longer fits, while lo's shorter
    /// empty claim does. lo senses idle at counter 1 and infers "hi wants
    /// down"; the concede rule makes hi agree, keeping σ consistent.
    #[test]
    fn concede_path_keeps_sigma_consistent() {
        // N = 2, C = 1: hi = link0 (priority 1, ξ = +1 -> β = 0),
        // lo = link1 (priority 2, ξ = +1 -> β = 1).
        // Deadline: one empty frame (62 µs) fits after one slot, but a
        // data frame (326 µs) does not fit at t = 0.
        let timing = MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_micros(200), 1500);
        let mut e = BatchedDpEngine::new(DpConfig::new(timing).with_trace(true), 2);
        let mut ch = Bernoulli::reliable(2);
        let mut rng = SeedStream::new(3).rng(0);
        let eps = 1e-12;
        // hi has a data packet (doesn't fit); lo has no arrival -> empty
        // claim frame (fits).
        let mu = [1.0 - eps, 1.0 - eps];
        let r = e.step_with_candidates(&[1, 0], &mu, &[1], &mut ch, &mut rng);
        // lo transmitted its empty claim; hi conceded; both swapped.
        assert_eq!(r.outcome.empty_packets, 1);
        assert_eq!(r.outcome.attempts, [0, 0], "hi's data frame never fit");
        assert_eq!(r.swaps, [AdjacentTransposition::new(1)]);
        assert_eq!(e.sigma().priorities(), [2, 1]);
    }

    /// Same corner but lo's frame does not fit either: nothing transmits,
    /// nobody concedes, σ unchanged.
    #[test]
    fn concede_requires_lo_transmission() {
        let timing = MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_micros(60), 1500);
        let mut e = BatchedDpEngine::new(DpConfig::new(timing), 2);
        let mut ch = Bernoulli::reliable(2);
        let mut rng = SeedStream::new(4).rng(0);
        let eps = 1e-12;
        let mu = [1.0 - eps, 1.0 - eps];
        // Both have data frames (326 µs) that can never fit in 60 µs; lo's
        // would-be empty frame is not generated because it has an arrival.
        let r = e.step_with_candidates(&[1, 1], &mu, &[1], &mut ch, &mut rng);
        assert!(r.swaps.is_empty());
        assert_eq!(r.outcome.total_deliveries(), 0);
        assert_eq!(e.sigma().priorities(), [1, 2]);
    }

    #[test]
    fn trace_is_empty_when_disabled() {
        let mut e = engine(3);
        let mut ch = Bernoulli::reliable(3);
        let mut rng = SeedStream::new(1).rng(0);
        let report = e.step(&[1; 3], &[0.5; 3], &mut ch, &mut rng);
        assert!(report.trace.is_empty());
    }

    #[test]
    #[should_panic(expected = "non-adjacent")]
    fn adjacent_candidate_set_rejected() {
        let mut e = engine(6);
        let mut ch = Bernoulli::reliable(6);
        let mut rng = SeedStream::new(1).rng(0);
        let _ = e.step_with_candidates(&[1; 6], &[0.5; 6], &[2, 3], &mut ch, &mut rng);
    }

    /// Mixed payloads on one medium: a 100 B control link squeezes its
    /// frame into tail time a 1500 B video frame cannot use.
    #[test]
    fn heterogeneous_payloads_share_the_interval() {
        // Deadline fits one 326 µs video frame plus one 118 µs control
        // frame (444 µs + slots), but not two video frames.
        let timing = MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_micros(500), 1500)
            .with_link_payloads(&[1500, 100]);
        let mut e = BatchedDpEngine::new(DpConfig::new(timing).with_swap_pairs(0), 2);
        let mut ch = Bernoulli::reliable(2);
        let mut rng = SeedStream::new(1).rng(0);
        let r = e.step(&[2, 2], &[0.5, 0.5], &mut ch, &mut rng);
        // Video link (priority 1) sends one frame; its second doesn't fit.
        assert_eq!(r.outcome.deliveries[0], 1);
        // Control link still delivers one 118 µs frame in the remainder.
        assert_eq!(r.outcome.deliveries[1], 1);
    }

    #[test]
    fn single_link_network_just_transmits() {
        let mut e = BatchedDpEngine::new(DpConfig::new(timing_ms(2, 100)), 1);
        let mut ch = Bernoulli::reliable(1);
        let mut rng = SeedStream::new(12).rng(0);
        let r = e.step(&[5], &[0.5], &mut ch, &mut rng);
        assert_eq!(r.outcome.deliveries, [5]);
        assert!(r.candidates.is_empty());
    }

    #[test]
    fn report_buffer_resets_between_intervals() {
        let mut e = engine(3);
        let mut ch = Bernoulli::reliable(3);
        let mut rng = SeedStream::new(4).rng(0);
        let first = e.step(&[2, 0, 1], &[0.5; 3], &mut ch, &mut rng).clone();
        assert_eq!(first.outcome.total_deliveries(), 3);
        // A later all-idle interval must not leak the previous counters.
        let second = e.step(&[0, 0, 0], &[0.5; 3], &mut ch, &mut rng);
        assert_eq!(second.outcome.total_deliveries(), 0);
        assert_eq!(second.outcome.total_attempts(), 0);
    }

    #[test]
    #[should_panic(expected = "must lie in (0, 1)")]
    fn mu_out_of_range_panics() {
        let mut e = engine(2);
        let mut ch = Bernoulli::reliable(2);
        let mut rng = SeedStream::new(0).rng(0);
        let _ = e.step(&[1, 1], &[0.0, 0.5], &mut ch, &mut rng);
    }

    #[test]
    #[should_panic(expected = "must lie in (0, 1)")]
    fn candidate_mu_out_of_range_panics() {
        let mut e = BatchedDpEngine::new(DpConfig::new(timing_ms(2, 100)), 2);
        let mut ch = Bernoulli::reliable(2);
        let mut rng = SeedStream::new(5).rng(0);
        e.step_with_candidates(&[1, 1], &[1.5, 0.5], &[1], &mut ch, &mut rng);
    }

    /// Injected coins are exactly the coins extreme μ draws: on a scripted
    /// channel (which ignores the RNG) `step_with_coins` and
    /// `step_with_candidates` with ε / 1−ε μ give equal reports and σ.
    #[test]
    fn step_with_coins_matches_extreme_mu() {
        let n = 7;
        let timing = MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_micros(1500), 300);
        let config = DpConfig::new(timing).with_swap_pairs(3).with_trace(true);
        let mut by_coins = BatchedDpEngine::new(config.clone(), n);
        let mut by_mu = BatchedDpEngine::new(config, n);
        let mut meta = SeedStream::new(21).rng(0);
        let mut rng_a = SeedStream::new(22).rng(0);
        let mut rng_b = SeedStream::new(22).rng(0);
        let eps = 1e-12;
        for k in 0..60 {
            let arrivals: Vec<u32> = (0..n).map(|_| meta.random_range(0..3)).collect();
            let candidates = crate::draw_nonadjacent_candidates(n, 3, &mut meta);
            let coins: Vec<PairCoins> = candidates
                .iter()
                .map(|_| PairCoins {
                    hi_up: meta.random_bool(0.5),
                    lo_up: meta.random_bool(0.5),
                })
                .collect();
            let mut mu = vec![0.5; n];
            for (&c, coin) in candidates.iter().zip(&coins) {
                let hi = by_mu.sigma().link_with_priority(c).index();
                let lo = by_mu.sigma().link_with_priority(c + 1).index();
                mu[hi] = if coin.hi_up { 1.0 - eps } else { eps };
                mu[lo] = if coin.lo_up { 1.0 - eps } else { eps };
            }
            let script: Vec<Vec<bool>> = (0..n)
                .map(|_| (0..16).map(|_| meta.random_bool(0.7)).collect())
                .collect();
            let mut ch_a = Scripted::new(script.clone()).unwrap();
            let mut ch_b = Scripted::new(script).unwrap();
            let a = by_coins
                .step_with_coins(&arrivals, &candidates, &coins, &mut ch_a, &mut rng_a)
                .clone();
            let b = by_mu.step_with_candidates(&arrivals, &mu, &candidates, &mut ch_b, &mut rng_b);
            assert_eq!(&a, b, "interval {k} diverged");
            assert_eq!(by_coins.sigma(), by_mu.sigma(), "σ diverged at {k}");
        }
    }

    #[test]
    #[should_panic(expected = "one PairCoins per candidate pair")]
    fn step_with_coins_rejects_a_length_mismatch() {
        let mut e = engine(4);
        let mut ch = Bernoulli::reliable(4);
        let mut rng = SeedStream::new(0).rng(0);
        let coins = [PairCoins {
            hi_up: true,
            lo_up: true,
        }];
        let _ = e.step_with_coins(&[1; 4], &[1, 3], &coins, &mut ch, &mut rng);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Core protocol invariants over random workloads: never a
        /// collision, σ stays a valid permutation, per-link deliveries never
        /// exceed arrivals, and the swap handshake never diverges (the
        /// debug assertions inside `step` enforce agreement).
        #[test]
        fn prop_dp_invariants(
            n in 2usize..8,
            seed in 0u64..500,
            intervals in 1usize..30,
            pairs in 0usize..3,
        ) {
            let timing = MacTiming::new(
                PhyProfile::ieee80211a(),
                Nanos::from_millis(5),
                300,
            );
            let mut e = BatchedDpEngine::new(DpConfig::new(timing).with_swap_pairs(pairs), n);
            let seeds = SeedStream::new(seed);
            let mut rng = seeds.rng(0);
            let mut arr_rng = seeds.rng(1);
            let mut ch = Bernoulli::new(vec![0.6; n]).unwrap();
            for _ in 0..intervals {
                let arrivals: Vec<u32> =
                    (0..n).map(|_| arr_rng.random_range(0..4)).collect();
                let mu: Vec<f64> = (0..n).map(|_| arr_rng.random_range(0.05..0.95)).collect();
                let r = e.step(&arrivals, &mu, &mut ch, &mut rng).clone();
                prop_assert_eq!(r.outcome.collisions, 0);
                for (link, &d) in r.outcome.deliveries.iter().enumerate() {
                    prop_assert!(
                        d <= u64::from(arrivals[link]),
                        "link {} delivered {} of {}", link, d, arrivals[link]
                    );
                }
                prop_assert!(
                    Permutation::from_priorities(e.sigma().priorities().to_vec()).is_ok()
                );
                // Every committed swap corresponds to exactly one drawn
                // candidate pair: at most |C(k)| swaps, each at a drawn
                // upper priority, and no upper priority swaps twice.
                prop_assert!(r.swaps.len() <= r.candidates.len());
                for (i, t) in r.swaps.iter().enumerate() {
                    prop_assert!(
                        r.candidates.contains(&t.upper()),
                        "swap at {} not among drawn candidates {:?}",
                        t.upper(),
                        r.candidates
                    );
                    if i > 0 {
                        prop_assert!(r.swaps[i - 1].upper() < t.upper());
                    }
                }
                if pairs <= 1 {
                    // The paper's configuration: at most one adjacent pair
                    // exchanges priorities per interval.
                    prop_assert!(r.swaps.len() <= 1);
                }
                // Busy time can never exceed the interval.
                prop_assert!(r.outcome.busy_time <= Nanos::from_millis(5));
            }
        }
    }
}
