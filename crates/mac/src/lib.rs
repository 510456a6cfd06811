//! # rtmac-mac
//!
//! Medium-access protocol engines over the `rtmac-phy` substrate. Each
//! engine simulates one deadline interval at a time: given the interval's
//! arrivals (and protocol-specific per-interval inputs derived from delivery
//! debts by the `rtmac` core crate), it plays out carrier sensing, backoff,
//! transmissions, losses, and collisions, and reports an [`IntervalOutcome`].
//!
//! Engines:
//!
//! * [`BatchedDpEngine`] — the paper's contribution: the Decentralized
//!   Priority protocol (Algorithm 2). Collision-free deterministic backoff
//!   derived from per-link priority indices, randomized adjacent-pair
//!   reordering driven purely by coin flips and carrier sensing, empty
//!   priority-claim packets, and the multi-pair generalization of
//!   Remark 6. It costs `O(min(N, deadline/slot))` per interval: it walks
//!   links in counter order over a flat struct-of-arrays state and
//!   resolves carrier-sense checks against a bitset claim board.
//!   [`reference::ReferenceNetwork`] re-implements the same protocol one
//!   device at a time and serves as its differential-test oracle. With a
//!   fault layer the same kernel runs the degraded mode: per-link priority
//!   *beliefs* under injected carrier-sensing faults, hidden terminals and
//!   link churn, modelled collisions where beliefs share a counter, and the
//!   self-stabilizing recovery rule of [`RecoveryConfig`] that restores
//!   the priority bijection.
//! * [`FcsmaEngine`] — the discretized Fast-CSMA baseline of Li & Eryilmaz
//!   as used in the paper's comparison: slotted random access whose
//!   per-slot attempt probability is a quantized function of delivery debt,
//!   with real collisions.
//! * [`DcfEngine`] — IEEE 802.11 DCF with binary exponential backoff, a
//!   debt-unaware ablation baseline.
//! * [`CentralizedEngine`] — serve-in-priority-order scheduling with
//!   retransmissions and no contention: the substrate for LDF/ELDF
//!   (Algorithm 1).
//!
//! # Example
//!
//! ```
//! use rtmac_mac::{CentralizedEngine, MacTiming};
//! use rtmac_phy::channel::Bernoulli;
//! use rtmac_phy::PhyProfile;
//! use rtmac_model::LinkId;
//! use rtmac_sim::{Nanos, SeedStream};
//!
//! // 2 links, perfectly reliable, 2 ms deadline, 100 B packets.
//! let timing = MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_millis(2), 100);
//! let mut engine = CentralizedEngine::new(timing);
//! let mut channel = Bernoulli::reliable(2);
//! let mut rng = SeedStream::new(1).rng(0);
//! let order = [LinkId::new(1), LinkId::new(0)];
//! let outcome = engine.run_interval(&[3, 2], &order, &mut channel, &mut rng);
//! assert_eq!(outcome.deliveries, [3, 2]); // both buffers fit in 16 slots
//! ```

mod batched;
mod centralized;
mod dcf;
mod degraded;
mod dp;
mod fcsma;
mod frame_csma;
mod outcome;
pub mod reference;
pub mod timeline;
mod timing;

pub use batched::BatchedDpEngine;
pub use centralized::CentralizedEngine;
pub use dcf::{DcfConfig, DcfEngine};
pub use degraded::{ChurnEvent, FaultStats, MissLimit, RecoveryConfig};
pub use dp::{
    draw_nonadjacent_candidates, draw_nonadjacent_candidates_into, DpConfig, DpIntervalReport,
    FrameKind, PairCoins, TraceEvent,
};
pub use fcsma::{FcsmaEngine, FcsmaQuantizer};
pub use frame_csma::FrameCsmaEngine;
pub use outcome::{IntervalOutcome, LinkActivity};
pub use timing::MacTiming;
