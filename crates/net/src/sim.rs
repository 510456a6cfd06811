//! The sim backend: the decision trace of a pure, transport-free run.
//!
//! [`sim_trace`] steps one central [`Network`] and synthesizes the exact
//! activity frames a deployment's link nodes would broadcast — through the
//! same [`link_frame`] constructor the nodes use, absorbed in the same
//! canonical order. Its fingerprint is the reference side of the replay
//! contract: loopback and UDP runs must reproduce it bit for bit.

use rtmac::scenario::Scenario;
use rtmac::{Network, RunReport};
use rtmac_mac::{IntervalOutcome, LinkActivity};
use rtmac_model::LinkId;

use crate::error::NetError;
use crate::frame::{Activity, Frame};
use crate::trace::{fnv1a, state_digest, DecisionTrace, FNV_OFFSET};

/// Digests a full scenario configuration into one u64.
///
/// Beacons carry it so a deployment whose nodes disagree on *any*
/// configuration detail — link count, traffic parameters, policy, seed,
/// engine, fault spec — refuses to start instead of desyncing later. The
/// digest folds the scenario's complete debug rendering, which is plain
/// data and covers every field.
///
/// # Example
///
/// ```
/// use rtmac_net::scenario_digest;
///
/// let sc = rtmac::scenario::by_name("tiny").unwrap();
/// assert_eq!(scenario_digest(&sc), scenario_digest(&sc.clone()));
/// assert_ne!(scenario_digest(&sc), scenario_digest(&sc.with_seed(1)));
/// ```
#[must_use]
pub fn scenario_digest(sc: &Scenario) -> u64 {
    fnv1a(FNV_OFFSET, format!("{sc:?}").as_bytes())
}

/// Builds the activity frame link `link` broadcasts for the interval that
/// [`Network::step`] just completed.
///
/// This is the single point where engine state becomes wire content — the
/// lockstep nodes and [`sim_trace`] both call it, which is what makes the
/// replay contract an equality of byte streams rather than a coincidence:
///
/// * the kind comes from [`IntervalOutcome::link_activity`] (claim when the
///   link transmitted, busy when it had backlog but deferred, idle
///   otherwise);
/// * `rank` is the link's position under the post-interval σ (its own
///   index when the policy keeps no permutation);
/// * `state_digest` commits to the post-interval σ and every link's debt.
///
/// # Panics
///
/// Panics if `link` is out of range for the network, or if `outcome` is
/// not the outcome of `net`'s most recent step (slice lengths mismatch).
///
/// # Example
///
/// ```
/// use rtmac_net::{link_frame, FrameKind};
///
/// let sc = rtmac::scenario::by_name("tiny").unwrap();
/// let mut net = sc.network().unwrap();
/// let outcome = net.step();
/// let frame = link_frame(&net, &outcome, 0, 2);
/// assert_eq!(frame.activity().unwrap().link, 2);
/// // tiny has constant arrivals, so nobody is ever idle at interval 0.
/// assert_ne!(frame.kind(), FrameKind::Idle);
/// ```
#[must_use]
pub fn link_frame(net: &Network, outcome: &IntervalOutcome, interval: u64, link: usize) -> Frame {
    let arrivals = net.last_arrivals()[link];
    let sigma = net.sigma();
    let rank = match sigma {
        Some(sigma) => saturate_u32(sigma.priority_of(LinkId::new(link)) as u64),
        None => saturate_u32(link as u64),
    };
    let body = Activity {
        interval,
        link: saturate_u32(link as u64),
        rank,
        backlog: arrivals,
        deliveries: saturate_u32(outcome.deliveries[link]),
        attempts: saturate_u32(outcome.attempts[link]),
        state_digest: state_digest(interval, sigma, net.debts().debts()),
    };
    match outcome.link_activity(link, arrivals) {
        LinkActivity::Claim => Frame::Claim(body),
        LinkActivity::Busy => Frame::Busy(body),
        LinkActivity::Idle => Frame::Idle(body),
    }
}

fn saturate_u32(x: u64) -> u32 {
    u32::try_from(x).unwrap_or(u32::MAX)
}

/// The result of a sim-backend trace run.
#[derive(Debug, Clone)]
pub struct SimTrace {
    /// Decision-trace fingerprint (the replay contract's reference value).
    pub fingerprint: u64,
    /// Frames absorbed (`links × intervals`).
    pub frames: u64,
    /// The ordinary simulation report of the same run.
    pub report: RunReport,
}

/// Runs `intervals` intervals of `sc` through the pure simulator and
/// returns the decision-trace fingerprint plus the usual report.
///
/// # Errors
///
/// Returns [`NetError::Config`] when the scenario does not build.
///
/// # Panics
///
/// Propagates policy-engine panics, as in [`Network::step`].
///
/// # Example
///
/// ```
/// use rtmac_net::sim_trace;
///
/// let sc = rtmac::scenario::by_name("tiny").unwrap();
/// let a = sim_trace(&sc, 10).unwrap();
/// let b = sim_trace(&sc, 10).unwrap();
/// assert_eq!(a.fingerprint, b.fingerprint);
/// assert_eq!(a.frames, 30);
/// ```
pub fn sim_trace(sc: &Scenario, intervals: usize) -> Result<SimTrace, NetError> {
    let mut net = sc.network()?;
    let n = sc.links;
    let mut trace = DecisionTrace::new();
    for interval in 0..intervals {
        let outcome = net.step();
        for link in 0..n {
            trace.absorb(&link_frame(&net, &outcome, interval as u64, link));
        }
    }
    Ok(SimTrace {
        fingerprint: trace.fingerprint(),
        frames: trace.frames(),
        report: net.report(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtmac::scenario;

    #[test]
    fn fingerprint_depends_on_seed_and_horizon() {
        let sc = scenario::by_name("tiny").unwrap();
        let base = sim_trace(&sc, 20).unwrap();
        assert_ne!(
            base.fingerprint,
            sim_trace(&sc.clone().with_seed(1), 20).unwrap().fingerprint
        );
        assert_ne!(base.fingerprint, sim_trace(&sc, 21).unwrap().fingerprint);
        assert_eq!(base.report.intervals, 20);
    }

    #[test]
    fn non_dp_policies_trace_too() {
        // No σ: ranks fall back to link indices, the digest marks σ absent.
        let sc = scenario::by_name("tiny")
            .unwrap()
            .with_policy(rtmac::PolicySpec::Ldf);
        let run = sim_trace(&sc, 5).unwrap();
        assert_eq!(run.frames, 15);
    }

    #[test]
    fn engine_label_does_not_move_the_fingerprint() {
        // `Scenario::engine` is an inert label: one DP engine runs either
        // way, so the decision trace must agree.
        let sc = scenario::by_name("control10").unwrap();
        let timeline = sim_trace(&sc, 50).unwrap();
        let batched = sim_trace(
            &sc.clone().with_engine(rtmac::scenario::EngineSpec::Batched),
            50,
        )
        .unwrap();
        assert_eq!(timeline.fingerprint, batched.fingerprint);
    }
}
