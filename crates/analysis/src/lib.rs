//! # rtmac-analysis
//!
//! Exact analysis tools for the DP priority protocol and the paper's
//! theoretical claims:
//!
//! * [`markov`] — the priority permutation Markov chain `{σ(k)}`: its
//!   `N!×N!` transition matrix (Eq. 9), numeric stationary distribution,
//!   the closed-form product distribution of Proposition 2 (Eqs. 10–12),
//!   detailed-balance/irreducibility/aperiodicity checks, and
//!   total-variation mixing diagnostics. Also an empirical-distribution
//!   sampler that runs the *actual* `BatchedDpEngine` and compares.
//! * [`feasibility`] — admission tools: the workload necessary condition
//!   `Σ q_n / p_n ≤ T/airtime`, and an LDF-based bisection search for the
//!   boundary of the feasible region (the "maximum admissible α*" the
//!   paper reads off Fig. 3).
//! * [`admission`] — the online admission gate over that machinery: accept
//!   or reject links arriving at churn events against a utilization
//!   threshold, and shed load lowest-debt-first when the admitted set is
//!   overloaded anyway (Singh–Hou–Kumar pathwise debt boundedness inside
//!   the feasibility region; Jaramillo–Srikant admission motivation).
//! * [`optimal`] — an exact finite-horizon dynamic program over *all*
//!   scheduling policies for small instances, used to verify Lemma 3: the
//!   ELDF priority ordering maximizes the expected debt-weighted deliveries
//!   `E[Σ f(d⁺)·S]` in every interval.

pub mod admission;
pub mod drift;
pub mod feasibility;
pub mod markov;
pub mod optimal;
