//! The Decentralized Priority (DP) protocol — Algorithm 2 of the paper,
//! including the multi-pair generalization of Remark 6.
//!
//! Each link holds a unique priority index `σ_n(k−1) ∈ 1..=N`. At the start
//! of interval `k` every device derives the same random swap-candidate
//! priorities `C(k)` from a shared seed, computes a *deterministic* backoff
//! from its own priority (Eq. 6), and counts idle slots. Because the backoff
//! numbers are distinct by construction, transmissions never collide. The
//! two candidate links flip private coins `ξ` (Eq. 5) and detect each
//! other's intention purely by carrier sensing at the instant their backoff
//! counter reaches 1 (Eqs. 7–8); a confirmed handshake exchanges their
//! priorities for the next interval.
//!
//! This module holds the protocol's shared types and the candidate
//! sampler. [`crate::BatchedDpEngine`] executes the fault-free interval;
//! [`crate::FaultyDpEngine`] executes it over corrupted local state.

use rand::seq::SliceRandom;
use rand::Rng;
use rtmac_model::{AdjacentTransposition, LinkId};
use rtmac_sim::{Nanos, SimRng};

use crate::{IntervalOutcome, MacTiming};

/// Configuration of a DP engine ([`crate::BatchedDpEngine`] or
/// [`crate::FaultyDpEngine`]).
#[derive(Debug, Clone)]
pub struct DpConfig {
    timing: MacTiming,
    swap_pairs: usize,
    trace: bool,
}

impl DpConfig {
    /// The paper's protocol: one swap pair per interval.
    #[must_use]
    pub fn new(timing: MacTiming) -> Self {
        DpConfig {
            timing,
            swap_pairs: 1,
            trace: false,
        }
    }

    /// Uses `pairs` simultaneous non-adjacent swap pairs per interval
    /// (Remark 6). `0` disables reordering entirely — the fixed-priority
    /// variant measured in Fig. 6.
    #[must_use]
    pub fn with_swap_pairs(mut self, pairs: usize) -> Self {
        self.swap_pairs = pairs;
        self
    }

    /// Records a [`TraceEvent`] timeline for every interval (off by
    /// default; costs an allocation per event).
    #[must_use]
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// The timing context.
    #[must_use]
    pub fn timing(&self) -> &MacTiming {
        &self.timing
    }

    /// Number of swap pairs drawn per interval.
    #[must_use]
    pub fn swap_pairs(&self) -> usize {
        self.swap_pairs
    }

    /// Whether tracing is enabled.
    #[must_use]
    pub fn trace(&self) -> bool {
        self.trace
    }
}

/// Explicit coin outcomes for one drawn candidate pair — Eq. 5 made
/// external, the way [`crate::BatchedDpEngine::step_with_candidates`]
/// already externalizes the shared candidate draw. Used by the bounded model
/// checker (`crates/verify`) to enumerate every ξ vector exhaustively
/// instead of sampling it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairCoins {
    /// ξ of the higher-priority candidate: `true` is `+1` ("stay up"),
    /// `false` is `−1` ("move down").
    pub hi_up: bool,
    /// ξ of the lower-priority candidate: `true` is `+1` ("move up"),
    /// `false` is `−1` ("stay down").
    pub lo_up: bool,
}

/// The kind of frame a [`TraceEvent::TxStart`] refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// A data packet (with ACK and guard time folded into its airtime).
    Data,
    /// An empty priority-claim packet (Step 2 of Algorithm 2).
    Empty,
}

/// One entry in an interval's protocol timeline (enabled by
/// [`DpConfig::with_trace`]). Timestamps are relative to the interval
/// start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A link's initial backoff counter (Eq. 6), emitted at interval start.
    BackoffSet {
        /// The link.
        link: LinkId,
        /// Its backoff counter β_n(k).
        counter: u64,
    },
    /// A frame transmission begins.
    TxStart {
        /// The transmitting link.
        link: LinkId,
        /// Start time within the interval.
        at: Nanos,
        /// Data or empty priority-claim frame.
        kind: FrameKind,
    },
    /// A frame transmission ends.
    TxEnd {
        /// The transmitting link.
        link: LinkId,
        /// End time within the interval.
        at: Nanos,
        /// Whether a data frame was delivered (always `false` for empty
        /// frames).
        delivered: bool,
    },
    /// A swap candidate performed its carrier-sense check at backoff
    /// counter 1 (Step 5, Eqs. 7–8).
    SenseCheck {
        /// The sensing link.
        link: LinkId,
        /// Time of the slot boundary.
        at: Nanos,
        /// What it heard.
        busy: bool,
    },
    /// A priority swap committed at interval end (Step 7).
    SwapCommitted {
        /// The upper priority `C` of the exchanged pair.
        upper: usize,
    },
    /// Degraded mode only ([`crate::FaultyDpEngine`]): the two sides of a
    /// drawn pair committed inconsistent priority moves, so the local σ
    /// views diverged. The pristine [`crate::BatchedDpEngine`] never
    /// emits this.
    Divergence {
        /// The upper priority `C` of the diverging pair.
        upper: usize,
    },
}

/// Result of one DP interval: the generic [`IntervalOutcome`] plus the
/// protocol's reordering trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DpIntervalReport {
    /// Deliveries, attempts and overhead counters.
    pub outcome: IntervalOutcome,
    /// The swap-candidate upper priorities `C(k)` drawn this interval.
    pub candidates: Vec<usize>,
    /// The adjacent transpositions actually committed (subset of
    /// `candidates`).
    pub swaps: Vec<AdjacentTransposition>,
    /// The protocol timeline (empty unless [`DpConfig::with_trace`] is on).
    pub trace: Vec<TraceEvent>,
}

/// Draws `want` pairwise non-adjacent upper priorities `C` uniformly at
/// random from `{1, …, N−1}` (Step 1 of Algorithm 2 / Remark 6).
///
/// Non-adjacent means `|C_i − C_j| ≥ 2`, so the swap pairs `{C, C+1}` are
/// disjoint; the result is sorted ascending. `want` is clamped to `⌊n/2⌋`
/// (the maximum number of disjoint adjacent pairs), and the draw is empty
/// when `n < 2` or `want == 0`. This is the same sampler
/// [`crate::BatchedDpEngine::step`] uses internally for its shared
/// candidate draw; the statistical model checker (`crates/verify`) calls it directly
/// to sample the candidate-*set* dimension of a trajectory.
///
/// # Example
///
/// ```
/// use rtmac_mac::draw_nonadjacent_candidates;
/// use rtmac_sim::SeedStream;
///
/// let mut rng = SeedStream::new(7).rng(0);
/// let set = draw_nonadjacent_candidates(6, 2, &mut rng);
/// assert_eq!(set.len(), 2);
/// assert!(set.windows(2).all(|w| w[1] - w[0] >= 2));
/// assert!(set.iter().all(|&c| (1..6).contains(&c)));
/// ```
#[must_use]
pub fn draw_nonadjacent_candidates(n: usize, want: usize, rng: &mut SimRng) -> Vec<usize> {
    let mut out = Vec::new();
    let mut pool = Vec::new();
    draw_nonadjacent_candidates_into(n, want, rng, &mut out, &mut pool);
    out
}

/// Buffer-reusing form of [`draw_nonadjacent_candidates`]: writes the drawn
/// set into `out` using `pool` as shuffle scratch.
///
/// Consumes exactly the same RNG sequence as the allocating form, so a
/// caller that swaps one for the other keeps bit-identical traces. Both
/// buffers are cleared first; after the first call at a given
/// `(n, want)` no further allocation occurs.
pub fn draw_nonadjacent_candidates_into(
    n: usize,
    want: usize,
    rng: &mut SimRng,
    out: &mut Vec<usize>,
    pool: &mut Vec<usize>,
) {
    out.clear();
    let want = want.min(n / 2);
    if n < 2 || want == 0 {
        return;
    }
    if want == 1 {
        out.push(rng.random_range(1..n));
        return;
    }
    // Stars-and-bars bijection: sorted non-adjacent `want`-sets of
    // {1..n−1} correspond one-to-one to plain `want`-subsets of
    // {1..n−want} via x_i = y_i + (i − 1), so drawing a uniform subset
    // and shifting yields an exactly uniform non-adjacent set in O(n).
    // (Rejection sampling degenerates near the maximum packing: at
    // n = 20, want = 10 only one of the C(19,10) = 92378 subsets is
    // non-adjacent.)
    pool.clear();
    pool.extend(1..=n - want);
    pool.shuffle(rng);
    out.extend_from_slice(&pool[..want]);
    out.sort_unstable();
    for (i, x) in out.iter_mut().enumerate() {
        *x += i;
    }
}
