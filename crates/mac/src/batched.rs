//! The DP interval engine: Algorithm 2 in `O(min(N, deadline/slot))`
//! work per interval, with an optional fault layer for the degraded mode.
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
//! 1. **A counter is a function of (priority, coin)**, injective and
//!    increasing in the priority order, and a link with initial counter
//!    `c` acts at slot boundary `k = c` (counters decrement once per
//!    processed boundary after the first). Walking priorities `1..=N` —
//!    with the pair blocks ordered by counter — visits the counters in
//!    strictly increasing order. No per-boundary scan is needed.
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
//!    No check changes what the walk does, so resolving them late is exact.
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
//! # The degraded mode
//!
//! The priority state is the per-link belief vector plus a holder index
//! (priority → the links that believe it, in link order). Without a fault
//! layer the beliefs are σ itself: one holder per priority. Once sensing
//! faults, churn or a corrupted start break the bijection (see
//! [`crate::RecoveryConfig`]), several links can believe the same priority
//! and draw the same coin, and therefore share a counter. The walk treats
//! all links at one counter as one boundary: nothing to send is an idle
//! slot, one sender is the ordinary claim, and two or more senders are a
//! modelled collision — every frame is lost, the medium is busy for the
//! longest airtime, data frames cost one attempt each and no channel draw
//! happens. Coins are drawn per pair for every up hi-believer in link
//! order, then every up lo-believer in link order.
//!
//! The fault layer filters the post-walk sense checks (first the
//! hidden-terminal ground truth, then [`FaultModel::sense`], in boundary
//! and believer order), commits each believer's move, and applies the
//! R1/R2 recovery rule. With zero-rate faults, no churn and no hidden
//! terminals it replays the fault-free engine draw for draw.
//!
//! # Allocation discipline
//!
//! All working storage — the believer table, the claim board, the reused
//! [`DpIntervalReport`] and the fault layer's index — is owned by the
//! engine; after a warm-up interval the hot path performs **zero heap
//! allocations** (pinned by `tests/alloc_regression.rs` with a counting
//! allocator). Without a fault layer an interval does no `O(N)` pass.
//! Trace mode is the documented exception: it buffers and sorts events and
//! is meant for debugging, not the hot path.
//!
//! # Input checks
//!
//! * `mu` values of non-candidate links are range-checked only in debug
//!   builds: asserting all `N` per interval would be the dominant cost at
//!   `N = 10 000`. The candidate links' values are asserted in all builds;
//!   no RNG draw depends on the difference.
//! * Claimants must reach the walk in increasing counter order, asserted
//!   in all builds.

use rand::Rng;
use rtmac_model::{AdjacentTransposition, LinkId, Permutation};
use rtmac_phy::channel::LossModel;
use rtmac_phy::fault::{ChurnProcess, FaultModel, HiddenMatrix};
use rtmac_phy::{Medium, SenseBoard};
use rtmac_sim::{Nanos, SimRng};

use crate::degraded::FaultLayer;
use crate::dp::{
    draw_nonadjacent_candidates_into, DpConfig, DpIntervalReport, FrameKind, PairCoins, TraceEvent,
};
use crate::{ChurnEvent, FaultStats, IntervalOutcome, MacTiming, RecoveryConfig};

/// Sentinel for "no concede check armed" in [`Believer::concede_at`].
const UNARMED: u64 = u64::MAX;

/// Sentinel for "no clean claim heard" in [`DpState::pair_heard`].
pub(crate) const NO_LINK: usize = usize::MAX;

/// One link on one side of a drawn pair: a link whose belief is the
/// pair's upper priority `C` (hi) or `C + 1` (lo).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Believer {
    pub(crate) link: usize,
    pub(crate) hi: bool,
    /// hi: `ξ = −1`, wants to move down; lo: `ξ = +1`, wants to move up.
    pub(crate) wants: bool,
    /// Initial backoff counter (Eq. 6).
    pub(crate) counter: u64,
    /// lo only: began a transmission (Eq. 9's `R_i + R_j ≥ 1`).
    pub(crate) sent: bool,
    /// Boundary whose busy bit decides a staying hi's Remark-4 concede
    /// ([`UNARMED`] unless its claim did not fit).
    pub(crate) concede_at: u64,
    /// The move the believer commits: hi down, lo up.
    pub(crate) moves: bool,
}

impl Believer {
    /// Records what the believer's claim at `counter` did. A believer
    /// always has a frame (data, or Step 2's empty claim), so a silent
    /// claim is one that no longer fit.
    fn record(&mut self, claim: Claim, counter: u64, heard: &mut usize) {
        match claim {
            Claim::Clean | Claim::Collided if !self.hi => self.sent = true,
            Claim::Clean => *heard = self.link,
            // Remark 4: a *staying* hi whose claim no longer fits concedes
            // iff a transmission starts at exactly the next boundary.
            Claim::Silent if self.hi && !self.wants => self.concede_at = counter + 1,
            _ => {}
        }
    }
}

/// Flat interval state, owned by the engine so the hot loop never
/// allocates. There are no per-link `counter`/`role`/`done` vectors:
/// per-believer facts live in one table, per-link facts are derived on the
/// fly from the priority walk.
#[derive(Debug, Clone, Default)]
struct DpState {
    /// Upper priority `C` of pair `j` (sorted, pairwise non-adjacent).
    pair_c: Vec<usize>,
    /// Pair `j`'s believers are `believers[pair_start[j]..pair_start[j + 1]]`.
    pair_start: Vec<usize>,
    /// The last hi believer of pair `j` whose claim went out clean — the
    /// claim R2's lo side listens for — or [`NO_LINK`].
    pair_heard: Vec<usize>,
    /// Every pair's believers, in walk order: pair, counter, link.
    believers: Vec<Believer>,
    /// Sense checks to resolve after the walk: `(boundary, link, believer)`.
    checks: Vec<(u64, usize, usize)>,
    /// Fault layer only: `(boundary, link)` of every frame start, in
    /// boundary order.
    starts: Vec<(u64, usize)>,
    /// Links starting a frame at a shared boundary, and their airtimes.
    started: Vec<usize>,
    airtimes: Vec<Nanos>,
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

/// The links that believe each priority, in link order.
#[derive(Clone, Copy)]
pub(crate) enum Holders<'a> {
    /// σ's inverse map: exactly one holder per priority.
    Sigma(&'a [usize]),
    /// The fault layer's index over the links that are up.
    Beliefs {
        start: &'a [usize],
        links: &'a [usize],
    },
}

impl<'a> Holders<'a> {
    fn of(self, p: usize) -> &'a [usize] {
        match self {
            Holders::Sigma(links) => &links[p - 1..p],
            Holders::Beliefs { start, links } => &links[start[p]..start[p + 1]],
        }
    }
}

/// Where an interval's coin flips come from: drawn from `μ` (Eq. 5) or
/// injected verbatim, one [`PairCoins`] per drawn candidate pair.
#[derive(Clone, Copy)]
enum CoinSource<'a> {
    Mu(&'a [f64]),
    Fixed(&'a [PairCoins]),
}

/// What happened at a claimant's action boundary.
#[derive(Clone, Copy)]
enum Claim {
    /// The deadline was reached before the claimant acted.
    Stopped,
    /// Nothing started: no data and no pending empty claim, or the frame
    /// no longer fit before the deadline (Remark 4).
    Silent,
    /// The claimant's frames went out alone (Step 6).
    Clean,
    /// The claimant's frame collided with others started with it.
    Collided,
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
    started: &'a mut Vec<usize>,
    airtimes: &'a mut Vec<Nanos>,
    /// Fault layer only: the per-boundary log of frame starts.
    starts: Option<&'a mut Vec<(u64, usize)>>,
    trace: Option<TraceRec<'a>>,
    medium: Medium,
    t: Nanos,
    next_boundary: u64,
}

/// Trace-mode sinks (separate struct so the hot path carries one `Option`).
struct TraceRec<'a> {
    events: &'a mut Vec<(u64, u32, TraceEvent)>,
    times: &'a mut Vec<Nanos>,
}

impl TraceRec<'_> {
    fn frame(&mut self, boundary: u64, seq: u32, link: usize, at: Nanos, kind: FrameKind) {
        self.events.push((
            boundary,
            seq,
            TraceEvent::TxStart {
                link: LinkId::new(link),
                at,
                kind,
            },
        ));
    }

    fn frame_end(&mut self, boundary: u64, seq: u32, link: usize, at: Nanos, delivered: bool) {
        self.events.push((
            boundary,
            seq,
            TraceEvent::TxEnd {
                link: LinkId::new(link),
                at,
                delivered,
            },
        ));
    }
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

    /// Advances through the idle gap to boundary `counter`. Returns
    /// `false` when the deadline stops the interval first.
    ///
    /// # Panics
    ///
    /// Panics if `counter` precedes an earlier claimant's: the walk visits
    /// counters in increasing order.
    fn reach(&mut self, counter: u64) -> bool {
        assert!(
            counter >= self.next_boundary,
            "claimants must arrive in increasing counter order"
        );
        // A boundary where t >= deadline is never processed.
        if self.t >= self.deadline {
            return false;
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
            return false;
        }
        self.advance_idle(gap);
        // Boundary `counter` is processed (t < deadline holds because
        // gap ≤ m − 1).
        true
    }

    /// The airtime of the frame `link` starts at the current boundary, if
    /// it has one that fits. `pending_empty` is Step 2's flag: the link is
    /// a swap candidate with no arrivals, so it claims its backoff slot
    /// with an empty frame.
    fn frame(&self, link: usize, pending_empty: bool) -> Option<Nanos> {
        let airtime = if self.arrivals[link] > 0 {
            self.timing.data_airtime_for(link)
        } else if pending_empty {
            self.timing.empty_airtime()
        } else {
            return None;
        };
        // Remark 4: a frame that no longer fits idles out the interval.
        self.timing.fits(self.t, airtime).then_some(airtime)
    }

    /// Advances to boundary `counter` and lets `link` act there alone.
    fn claim(&mut self, link: usize, counter: u64, pending_empty: bool) -> Claim {
        if !self.reach(counter) {
            return Claim::Stopped;
        }
        match self.frame(link, pending_empty) {
            Some(airtime) => {
                self.send(link, counter, airtime);
                Claim::Clean
            }
            None => {
                self.advance_idle(1);
                Claim::Silent
            }
        }
    }

    /// Advances to boundary `counter` and lets every link of `links` act
    /// there: each whose frame fits starts it. One start is a clean claim;
    /// two or more collide. Returns `false` when the deadline stops the
    /// interval first; otherwise `self.started` holds the starters.
    fn crowd(
        &mut self,
        counter: u64,
        links: impl Iterator<Item = usize>,
        candidates: bool,
    ) -> bool {
        if !self.reach(counter) {
            return false;
        }
        self.started.clear();
        self.airtimes.clear();
        for link in links {
            if let Some(airtime) = self.frame(link, candidates && self.arrivals[link] == 0) {
                self.started.push(link);
                self.airtimes.push(airtime);
            }
        }
        match self.started.len() {
            0 => self.advance_idle(1),
            1 => {
                let (link, airtime) = (self.started[0], self.airtimes[0]);
                self.send(link, counter, airtime);
            }
            _ => self.collide(counter),
        }
        true
    }

    /// Records a frame start at boundary `counter`.
    fn record_start(&mut self, counter: u64, link: usize) {
        if let Some(starts) = &mut self.starts {
            starts.push((counter, link));
        }
    }

    /// `link` holds the medium back-to-back from boundary `counter`
    /// (Step 6): data frames until its buffer drains or the next no longer
    /// fits, or one empty claim.
    fn send(&mut self, link: usize, counter: u64, airtime: Nanos) {
        self.board.record_start(counter as usize);
        self.record_start(counter, link);
        if let Some(tr) = &mut self.trace {
            tr.times.push(self.t);
        }
        let mut now = self.t;
        let mut seq: u32 = 1;
        let mut data = self.arrivals[link];
        if data > 0 {
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
                    tr.frame(counter, seq, link, now, FrameKind::Data);
                    tr.frame_end(counter, seq + 1, link, tx.ends_at, delivered);
                    seq += 2;
                }
                now = tx.ends_at;
            }
        } else {
            let tx = self.medium.transmit(now, &[airtime]);
            self.outcome.empty_packets += 1;
            if let Some(tr) = &mut self.trace {
                tr.frame(counter, seq, link, now, FrameKind::Empty);
                tr.frame_end(counter, seq + 1, link, tx.ends_at, false);
            }
            now = tx.ends_at;
        }
        self.t = now + self.slot; // one idle slot before the next boundary
        self.next_boundary = counter + 1;
    }

    /// The links of `self.started` collide at boundary `counter`: every
    /// frame is lost, the medium is busy for the longest airtime, each data
    /// frame costs one attempt and no channel draw happens.
    fn collide(&mut self, counter: u64) {
        self.board.record_start(counter as usize);
        if let Some(tr) = &mut self.trace {
            tr.times.push(self.t);
        }
        let tx = self.medium.transmit(self.t, &self.airtimes[..]);
        for i in 0..self.started.len() {
            let link = self.started[i];
            let kind = if self.arrivals[link] > 0 {
                self.outcome.attempts[link] += 1;
                self.touched.push(link);
                FrameKind::Data
            } else {
                self.outcome.empty_packets += 1;
                FrameKind::Empty
            };
            self.record_start(counter, link);
            if let Some(tr) = &mut self.trace {
                let seq = 2 * i as u32 + 1;
                tr.frame(counter, seq, link, self.t, kind);
                tr.frame_end(counter, seq + 1, link, tx.ends_at, false);
            }
        }
        self.t = tx.ends_at + self.slot;
        self.next_boundary = counter + 1;
    }
}

/// The DP protocol engine (Algorithm 2). Persists the priority state
/// across intervals; everything else is per-interval state,
/// `O(min(N, deadline/slot))` work per interval. An optional fault layer
/// (sensing faults, churn, hidden terminals, administrative blocking and
/// the R1/R2 recovery rule) runs the degraded mode on the same walk; any
/// `with_*` fault builder or `set_*` fault hook installs it.
///
/// # Example
///
/// ```
/// use rtmac_mac::{BatchedDpEngine, DpConfig, MacTiming};
/// use rtmac_phy::channel::Bernoulli;
/// use rtmac_phy::fault::FaultModel;
/// use rtmac_phy::PhyProfile;
/// use rtmac_sim::{Nanos, SeedStream};
///
/// let timing = MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_millis(2), 100);
/// let mut engine = BatchedDpEngine::new(DpConfig::new(timing.clone()), 4);
/// let mut channel = Bernoulli::reliable(4);
/// let mut rng = SeedStream::new(7).rng(0);
/// // One packet per link, neutral coins: everything is delivered
/// // collision-free in priority order.
/// let report = engine.step(&[1, 1, 1, 1], &[0.5; 4], &mut channel, &mut rng);
/// assert_eq!(report.outcome.total_deliveries(), 4);
/// assert_eq!(report.outcome.collisions, 0);
///
/// // The degraded mode: sensing errors desynchronize the views, and
/// // recovery heals them. Whatever happens, beliefs stay inside 1..=N.
/// let mut engine = BatchedDpEngine::new(DpConfig::new(timing), 4)
///     .with_fault_model(FaultModel::symmetric(0.2, SeedStream::new(7).rng(3)));
/// for _ in 0..50 {
///     let _ = engine.step(&[1, 1, 1, 1], &[0.5; 4], &mut channel, &mut rng);
/// }
/// assert!(engine.beliefs().iter().all(|&b| (1..=4).contains(&b)));
/// ```
#[derive(Debug, Clone)]
pub struct BatchedDpEngine {
    config: DpConfig,
    /// The priority permutation; exact whenever the beliefs are a
    /// bijection, and the whole priority state without a fault layer.
    sigma: Permutation,
    fault: Option<Box<FaultLayer>>,
    state: DpState,
    report: DpIntervalReport,
}

impl BatchedDpEngine {
    /// Creates an engine for `n_links` links with the identity priority
    /// ordering and no fault layer. Buffers whose size varies between
    /// intervals are sized here; the per-pair arrays grow to their fixed
    /// size on the first step, so stepping allocates nothing after that.
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
            fault: None,
            state,
            report: DpIntervalReport {
                outcome: IntervalOutcome::empty(n_links),
                candidates: Vec::new(),
                swaps: Vec::with_capacity(want),
                trace: Vec::new(),
            },
        }
    }

    /// The priority permutation `σ(k−1)`. Exact whenever the beliefs form
    /// a bijection (always, without faults); otherwise the last bijective
    /// state.
    #[must_use]
    pub fn sigma(&self) -> &Permutation {
        &self.sigma
    }

    /// Overrides the priority permutation (and with it the beliefs).
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
        if let Some(f) = &mut self.fault {
            f.beliefs.copy_from_slice(sigma.priorities());
            f.bijective = true;
        }
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

    /// The fault layer, installed on first use with perfect sensing, no
    /// churn, no hidden terminals, the default [`RecoveryConfig`] and the
    /// current σ as every link's belief.
    fn layer(&mut self) -> &mut FaultLayer {
        let sigma = &self.sigma;
        self.fault
            .get_or_insert_with(|| Box::new(FaultLayer::new(sigma.priorities())))
    }

    /// Installs a sensing-fault model.
    #[must_use]
    pub fn with_fault_model(mut self, fault: FaultModel) -> Self {
        self.set_fault_model(fault);
        self
    }

    /// Installs a churn process (scripted events, flash crowds, Poisson
    /// crash/revive).
    ///
    /// # Panics
    ///
    /// Panics if the process link count differs from the engine's.
    #[must_use]
    pub fn with_churn_process(mut self, churn: ChurnProcess) -> Self {
        assert_eq!(
            churn.n_links(),
            self.n_links(),
            "churn process link count mismatch"
        );
        self.layer().churn = Some(churn);
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
            self.n_links(),
            "hidden matrix link count mismatch"
        );
        self.layer().hidden = Some(hidden);
        self
    }

    /// Overrides the recovery rule.
    #[must_use]
    pub fn with_recovery(mut self, recovery: RecoveryConfig) -> Self {
        self.layer().set_recovery(recovery);
        self
    }

    /// Replaces the sensing-fault model mid-run (e.g. stop injecting
    /// errors and watch recovery heal the views). Flip counts of the
    /// outgoing model are preserved in [`BatchedDpEngine::stats`].
    pub fn set_fault_model(&mut self, fault: FaultModel) {
        self.layer().set_model(fault);
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
        assert!(link < self.n_links(), "blocked link out of range");
        self.layer().set_blocked(link, blocked);
    }

    /// Whether `link` is currently administratively blocked.
    #[must_use]
    pub fn is_blocked(&self, link: usize) -> bool {
        self.fault.as_ref().is_some_and(|f| f.is_blocked(link))
    }

    /// Moves all churn transitions (crashes and revivals) recorded since
    /// the last drain into `out`, oldest first. The admission layer calls
    /// this after each interval to learn about joiners and leavers.
    pub fn drain_churn_events(&mut self, out: &mut Vec<ChurnEvent>) {
        if let Some(f) = &mut self.fault {
            f.drain_churn_events(out);
        }
    }

    /// The churn process, if any.
    #[must_use]
    pub fn churn_process(&self) -> Option<&ChurnProcess> {
        self.fault.as_ref().and_then(|f| f.churn.as_ref())
    }

    /// Whether a fault layer is installed (the degraded mode).
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.fault.is_some()
    }

    /// The per-link priority beliefs (`beliefs()[n]` is what link `n`
    /// thinks its own priority is); σ's priorities without a fault layer.
    #[must_use]
    pub fn beliefs(&self) -> &[usize] {
        match &self.fault {
            Some(f) => &f.beliefs,
            None => self.sigma.priorities(),
        }
    }

    /// Overrides the belief vector — the hook for starting from a
    /// corrupted multiset (duplicates and holes allowed). Installs the
    /// fault layer.
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the link count or any value falls
    /// outside `1..=N`.
    pub fn set_beliefs(&mut self, beliefs: Vec<usize>) {
        let n = self.n_links();
        assert_eq!(beliefs.len(), n, "belief vector size must match link count");
        for (link, &b) in beliefs.iter().enumerate() {
            assert!(
                (1..=n).contains(&b),
                "belief {b} of link {link} outside 1..={n}"
            );
        }
        let bijective = self.sigma.assign_priorities(&beliefs).is_ok();
        self.layer().set_beliefs(beliefs, bijective);
    }

    /// Whether the beliefs currently form a bijection of `1..=N`.
    #[must_use]
    pub fn is_bijective(&self) -> bool {
        self.fault.as_ref().is_none_or(|f| f.bijective)
    }

    /// Cumulative fault/recovery counters (all zero without a fault
    /// layer).
    #[must_use]
    pub fn stats(&self) -> FaultStats {
        self.fault
            .as_ref()
            .map_or_else(FaultStats::default, |f| f.stats())
    }

    /// The per-link R2 miss limits currently in force (empty without a
    /// fault layer).
    #[must_use]
    pub fn r2_limits(&self) -> &[u32] {
        match &self.fault {
            Some(f) => &f.r2_limit,
            None => &[],
        }
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
    /// builds) if some `μ_n ∉ (0, 1)`.
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
    /// `candidates[j]` (every believer of a side flips the same coin);
    /// `rng` is only consumed by the channel model. This is the model
    /// checker's entry point: it enumerates all `(candidates, coins,
    /// channel)` combinations exhaustively.
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
            fault,
            state,
            report,
        } = self;
        let timing = config.timing();
        let tracing = config.trace();
        let DpState {
            pair_c,
            pair_start,
            pair_heard,
            believers,
            checks,
            starts,
            started,
            airtimes,
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
        pair_c.clear();
        pair_start.clear();
        pair_heard.clear();
        believers.clear();
        checks.clear();
        starts.clear();
        started.clear();
        airtimes.clear();
        if let Some(f) = fault.as_deref_mut() {
            // Advance the fault processes, find who is down, and index
            // the beliefs of the links that are up. Corrupted beliefs can
            // put every link on one side of a pair, so the per-believer
            // buffers are sized for all of them once.
            f.begin_interval();
            believers.reserve(n);
            checks.reserve(n);
            starts.reserve(n);
            started.reserve(n);
            airtimes.reserve(n);
        }
        let holders = match fault.as_deref() {
            Some(f) => f.holders(),
            None => Holders::Sigma(sigma.link_indices()),
        };

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
        // Coins are drawn in candidate order: every hi believer in link
        // order, then every lo believer (Eq. 5), unless injected verbatim.
        // Each pair's believers are then put in walk order: by counter
        // (Eq. 6: `belief − ξ`, plus 2 per earlier pair), then link.
        for (j, &c) in candidates.iter().enumerate() {
            let first = believers.len();
            pair_c.push(c);
            pair_start.push(first);
            pair_heard.push(NO_LINK);
            for (hi, p) in [(true, c), (false, c + 1)] {
                for &link in holders.of(p) {
                    let up = match coins {
                        CoinSource::Mu(mu) => {
                            let m = mu[link];
                            assert!(m > 0.0 && m < 1.0, "mu[{link}] = {m} must lie in (0, 1)");
                            rng.random_bool(m)
                        }
                        CoinSource::Fixed(flips) if hi => flips[j].hi_up,
                        CoinSource::Fixed(flips) => flips[j].lo_up,
                    };
                    believers.push(Believer {
                        link,
                        hi,
                        wants: hi != up,
                        counter: (if up { p - 1 } else { p + 1 }) as u64 + 2 * j as u64,
                        sent: false,
                        concede_at: UNARMED,
                        moves: false,
                    });
                }
            }
            believers[first..].sort_unstable_by_key(|bl| (bl.counter, bl.link));
        }
        pair_start.push(believers.len());
        let n_pairs = pair_c.len();
        let beliefs = match fault.as_deref() {
            Some(f) => &f.beliefs[..],
            None => sigma.priorities(),
        };

        // Trace mode: every up link's BackoffSet comes first, in link
        // order. O(N · believers) here is fine — trace mode is explicitly
        // off the hot path.
        if tracing {
            for (link, &b) in beliefs.iter().enumerate() {
                if fault.as_deref().is_some_and(|f| f.is_down(link)) {
                    continue;
                }
                let counter = match believers.iter().find(|bl| bl.link == link) {
                    Some(bl) => bl.counter,
                    None => {
                        let pairs_above = pair_c.iter().filter(|&&c| c + 1 < b).count() as u64;
                        (b as u64 - 1) + 2 * pairs_above
                    }
                };
                report.trace.push(TraceEvent::BackoffSet {
                    link: LinkId::new(link),
                    counter,
                });
            }
        }

        // --------------------- Phase 1: the priority walk (Steps 4/6).
        // Counters are visited in strictly increasing order: the priority
        // sweep 1..=N, with each pair block in its stored counter order.
        // All links at one counter act at one boundary.
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
            started,
            airtimes,
            starts: fault.is_some().then_some(starts),
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
        };
        let mut pair_idx = 0usize;
        let mut p = 1usize;
        'walk: while p <= n {
            if pair_idx < n_pairs && pair_c[pair_idx] == p {
                let j = pair_idx;
                let end = pair_start[j + 1];
                let mut i = pair_start[j];
                while i < end {
                    let counter = believers[i].counter;
                    let end_run = i + believers[i..end]
                        .iter()
                        .take_while(|bl| bl.counter == counter)
                        .count();
                    if end_run == i + 1 {
                        // Step 2: a candidate with no arrivals claims its
                        // backoff slot with an empty frame.
                        let bl = &mut believers[i];
                        let claim = walk.claim(bl.link, counter, arrivals[bl.link] == 0);
                        if let Claim::Stopped = claim {
                            break 'walk;
                        }
                        bl.record(claim, counter, &mut pair_heard[j]);
                    } else {
                        let group = &mut believers[i..end_run];
                        if !walk.crowd(counter, group.iter().map(|bl| bl.link), true) {
                            break 'walk;
                        }
                        let clean = walk.started.len() == 1;
                        let mut next = 0;
                        for bl in group {
                            let claim = if walk.started.get(next) == Some(&bl.link) {
                                next += 1;
                                if clean {
                                    Claim::Clean
                                } else {
                                    Claim::Collided
                                }
                            } else {
                                Claim::Silent
                            };
                            bl.record(claim, counter, &mut pair_heard[j]);
                        }
                    }
                    i = end_run;
                }
                p += 2;
                pair_idx += 1;
            } else {
                let counter = (p as u64 - 1) + 2 * pair_idx as u64;
                let stopped = match holders.of(p) {
                    [] => false,
                    &[link] => matches!(walk.claim(link, counter, false), Claim::Stopped),
                    crowd => !walk.crowd(counter, crowd.iter().copied(), false),
                };
                if stopped {
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

        // ------------------ Phase 2: sense resolution (Steps 5, Eqs. 7–8).
        // A willing believer senses where its counter stands at 1 (boundary
        // `initial − 1`); an armed concede senses its boundary. Each
        // believer has at most one check, and the fault layer filters them
        // in slot order: boundary, then link (one boundary's checks all
        // belong to one side of one pair).
        for (b, bl) in believers.iter().enumerate() {
            let at = if bl.wants {
                bl.counter - 1
            } else {
                bl.concede_at
            };
            if at < b_end {
                checks.push((at, bl.link, b));
            }
        }
        checks.sort_unstable();
        for &(at, link, b) in checks.iter() {
            let busy = match fault.as_deref_mut() {
                Some(f) => f.sense(link, at, board, starts),
                None => board.busy_at(at as usize),
            };
            let bl = &mut believers[b];
            if bl.wants {
                // Eq. 7: hi moves down on hearing busy; Eq. 8: lo moves up
                // on hearing idle, once it has claimed its slot.
                bl.moves = if bl.hi { busy } else { !busy && bl.sent };
                if tracing {
                    trace_tmp.push((
                        at,
                        0,
                        TraceEvent::SenseCheck {
                            link: LinkId::new(link),
                            at: boundary_times[at as usize],
                            busy,
                        },
                    ));
                }
            } else {
                bl.moves = busy;
            }
        }

        // Trace mode: merge the out-of-order sense checks back into the
        // per-boundary emission order of a slot-by-slot run (a stable sort:
        // one boundary's sense checks keep their resolution order).
        if tracing {
            trace_tmp.sort_by_key(|&(b, s, _)| (b, s));
            report.trace.extend(trace_tmp.iter().map(|&(_, _, e)| e));
        }

        // ---------------------------------- Phase 3: commit (Step 7).
        // Each believer commits the move it thinks it completed. Without
        // faults the two sides of a pair always agree; with them they can
        // disagree — a Divergence, which is how the beliefs lose their
        // bijectivity.
        for j in 0..n_pairs {
            let pair = &believers[pair_start[j]..pair_start[j + 1]];
            let hi_moves = pair.iter().filter(|bl| bl.hi && bl.moves).count();
            let lo_moves = pair.iter().filter(|bl| !bl.hi && bl.moves).count();
            let t = AdjacentTransposition::new(pair_c[j]);
            if hi_moves == 1 && lo_moves == 1 {
                report.swaps.push(t);
                if tracing {
                    report
                        .trace
                        .push(TraceEvent::SwapCommitted { upper: pair_c[j] });
                }
            }
            match fault.as_deref_mut() {
                Some(f) => {
                    if f.commit(pair) && tracing {
                        report
                            .trace
                            .push(TraceEvent::Divergence { upper: pair_c[j] });
                    }
                }
                None => {
                    debug_assert_eq!(
                        hi_moves, lo_moves,
                        "swap handshake diverged for pair C = {} (σ = {})",
                        pair_c[j], sigma
                    );
                    if hi_moves == 1 && lo_moves == 1 {
                        sigma.apply(t);
                    }
                }
            }
        }
        if let Some(f) = fault.as_deref_mut() {
            f.end_interval(sigma, pair_start, believers, pair_heard, starts);
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
