//! The priority permutation Markov chain `{σ(k)}` of Section IV-D.

use rtmac_model::{AdjacentTransposition, ConfigError, Permutation};

/// The Markov chain induced on `S_N` by the DP protocol's randomized
/// reordering, with constant coin parameters `μ_n` and a constant
/// handshake-completion probability `r = P{R_i + R_j ≥ 1}`.
///
/// Transition probabilities follow Eq. 9: for `σ̂` obtained from `σ` by the
/// adjacent transposition exchanging priorities `m` and `m+1` between links
/// `i` (at priority `m`) and `j` (at priority `m+1`),
///
/// ```text
/// X_{σ,σ̂} = (1 − μ_i) · μ_j / (N − 1) · r,
/// ```
///
/// all other off-diagonal entries are zero, and the diagonal absorbs the
/// rest. Proposition 2 gives the closed-form stationary distribution
///
/// ```text
/// π*(σ) ∝ Π_n (μ_n / (1 − μ_n))^{N − σ_n},
/// ```
///
/// which this module verifies numerically ([`PriorityChain::stationary_numeric`]
/// vs [`PriorityChain::stationary_closed_form`]) and structurally
/// ([`PriorityChain::max_detailed_balance_violation`]).
///
/// # Example
///
/// ```
/// use rtmac_analysis::markov::PriorityChain;
///
/// let chain = PriorityChain::new(vec![0.3, 0.6, 0.8], 1.0)?;
/// let numeric = chain.stationary_numeric(1e-12, 100_000);
/// let closed = chain.stationary_closed_form();
/// let err: f64 = numeric.iter().zip(&closed)
///     .map(|(a, b)| (a - b).abs()).sum();
/// assert!(err < 1e-9);
/// # Ok::<(), rtmac_model::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PriorityChain {
    mu: Vec<f64>,
    r_swap: f64,
}

impl PriorityChain {
    /// Creates the chain for coin parameters `mu` (each in `(0,1)`) and
    /// handshake completion probability `r_swap ∈ (0, 1]` (condition C1
    /// guarantees it is positive).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::InvalidParameter`] for out-of-range values,
    /// or [`ConfigError::NoLinks`] when `mu` is empty. `N` is capped at 8
    /// (`8! = 40320` states) to keep dense matrices tractable.
    pub fn new(mu: Vec<f64>, r_swap: f64) -> Result<Self, ConfigError> {
        if mu.is_empty() {
            return Err(ConfigError::NoLinks);
        }
        if mu.len() > 8 {
            return Err(ConfigError::InvalidParameter {
                name: "chain size (max 8 links for exact analysis)",
                value: mu.len() as f64,
            });
        }
        for &m in &mu {
            if !m.is_finite() || m <= 0.0 || m >= 1.0 {
                return Err(ConfigError::InvalidParameter {
                    name: "mu",
                    value: m,
                });
            }
        }
        if !r_swap.is_finite() || r_swap <= 0.0 || r_swap > 1.0 {
            return Err(ConfigError::InvalidParameter {
                name: "r_swap",
                value: r_swap,
            });
        }
        Ok(PriorityChain { mu, r_swap })
    }

    /// Number of links `N`.
    #[must_use]
    pub fn n(&self) -> usize {
        self.mu.len()
    }

    /// Number of states `N!`.
    #[must_use]
    pub fn states(&self) -> usize {
        (1..=self.mu.len()).product()
    }

    /// The probability of the transition `σ → σ.with(t)` (Eq. 9).
    #[must_use]
    pub fn transition_probability(&self, sigma: &Permutation, t: AdjacentTransposition) -> f64 {
        let n = self.n();
        let i = sigma.link_with_priority(t.upper());
        let j = sigma.link_with_priority(t.lower());
        (1.0 - self.mu[i.index()]) * self.mu[j.index()] / (n as f64 - 1.0) * self.r_swap
    }

    /// The dense `N!×N!` row-stochastic transition matrix, indexed by
    /// [`Permutation::rank`].
    #[must_use]
    pub fn transition_matrix(&self) -> Vec<Vec<f64>> {
        let n = self.n();
        let states = self.states();
        let mut x = vec![vec![0.0; states]; states];
        if n == 1 {
            x[0][0] = 1.0;
            return x;
        }
        for sigma in Permutation::all(n) {
            let row = sigma.rank() as usize;
            let mut stay = 1.0;
            for upper in 1..n {
                let t = AdjacentTransposition::new(upper);
                let p = self.transition_probability(&sigma, t);
                let col = sigma.with(t).rank() as usize;
                x[row][col] += p;
                stay -= p;
            }
            debug_assert!(stay > -1e-12, "row overflow at state {row}");
            x[row][row] += stay.max(0.0);
        }
        x
    }

    /// Stationary distribution via power iteration on the transition
    /// matrix, to tolerance `tol` in L1 (returns early when reached).
    #[must_use]
    pub fn stationary_numeric(&self, tol: f64, max_iter: usize) -> Vec<f64> {
        let x = self.transition_matrix();
        let states = x.len();
        let mut pi = vec![1.0 / states as f64; states];
        let mut next = vec![0.0; states];
        for _ in 0..max_iter {
            for v in next.iter_mut() {
                *v = 0.0;
            }
            for (s, row) in x.iter().enumerate() {
                let ps = pi[s];
                if ps == 0.0 {
                    continue;
                }
                for (d, &p) in row.iter().enumerate() {
                    if p > 0.0 {
                        next[d] += ps * p;
                    }
                }
            }
            let diff: f64 = pi.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
            std::mem::swap(&mut pi, &mut next);
            if diff < tol {
                break;
            }
        }
        pi
    }

    /// The closed-form stationary distribution of Proposition 2
    /// (Eqs. 10–12), indexed by [`Permutation::rank`].
    #[must_use]
    pub fn stationary_closed_form(&self) -> Vec<f64> {
        // Work in log space for numerical stability with extreme μ.
        let log_odds: Vec<f64> = self.mu.iter().map(|&m| (m / (1.0 - m)).ln()).collect();
        stationary_from_log_odds(&log_odds)
    }

    /// The largest violation of the detailed balance equations
    /// `π(σ)·X_{σ,σ̂} = π(σ̂)·X_{σ̂,σ}` over all adjacent-transposition
    /// pairs, using the closed-form π. Time-reversibility (Proposition 2)
    /// means this should be numerically zero.
    #[must_use]
    pub fn max_detailed_balance_violation(&self) -> f64 {
        let n = self.n();
        if n == 1 {
            return 0.0;
        }
        let pi = self.stationary_closed_form();
        let mut worst: f64 = 0.0;
        for sigma in Permutation::all(n) {
            for upper in 1..n {
                let t = AdjacentTransposition::new(upper);
                let other = sigma.with(t);
                let lhs = pi[sigma.rank() as usize] * self.transition_probability(&sigma, t);
                let rhs = pi[other.rank() as usize] * self.transition_probability(&other, t);
                worst = worst.max((lhs - rhs).abs());
            }
        }
        worst
    }

    /// Checks irreducibility: every state reaches every other state
    /// (adjacent transpositions generate `S_N`, and all rates are positive,
    /// so this must hold — Lemma 4).
    #[must_use]
    pub fn is_irreducible(&self) -> bool {
        let x = self.transition_matrix();
        let states = x.len();
        // BFS from state 0 over positive entries; by symmetry of the
        // support (transpositions are involutions) one sweep suffices.
        let mut seen = vec![false; states];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(s) = stack.pop() {
            for (d, &p) in x[s].iter().enumerate() {
                if p > 0.0 && !seen[d] {
                    seen[d] = true;
                    count += 1;
                    stack.push(d);
                }
            }
        }
        count == states
    }

    /// Checks aperiodicity: at least one state has a self-loop (Lemma 4;
    /// in fact every state does, because swaps fail with positive
    /// probability).
    #[must_use]
    pub fn is_aperiodic(&self) -> bool {
        let x = self.transition_matrix();
        (0..x.len()).any(|s| x[s][s] > 0.0)
    }

    /// Total-variation distance between the `k`-step distribution started
    /// at `from` and the closed-form stationary distribution, for
    /// `k = 0..=steps`. Mixing-time diagnostics for the two-time-scale
    /// argument of Section V-A.
    ///
    /// # Panics
    ///
    /// Panics if `from.len() != N`.
    #[must_use]
    pub fn tv_mixing_profile(&self, from: &Permutation, steps: usize) -> Vec<f64> {
        assert_eq!(from.len(), self.n(), "start permutation size mismatch");
        let x = self.transition_matrix();
        let pi = self.stationary_closed_form();
        let states = x.len();
        let mut dist = vec![0.0; states];
        dist[from.rank() as usize] = 1.0;
        let tv =
            |d: &[f64]| -> f64 { 0.5 * d.iter().zip(&pi).map(|(a, b)| (a - b).abs()).sum::<f64>() };
        let mut out = Vec::with_capacity(steps + 1);
        out.push(tv(&dist));
        let mut next = vec![0.0; states];
        for _ in 0..steps {
            for v in next.iter_mut() {
                *v = 0.0;
            }
            for (s, row) in x.iter().enumerate() {
                let ps = dist[s];
                if ps == 0.0 {
                    continue;
                }
                for (d, &p) in row.iter().enumerate() {
                    if p > 0.0 {
                        next[d] += ps * p;
                    }
                }
            }
            std::mem::swap(&mut dist, &mut next);
            out.push(tv(&dist));
        }
        out
    }

    /// The number of steps until the TV distance from `from` first drops
    /// below `eps`, up to `max_steps` (`None` if it never does).
    #[must_use]
    pub fn mixing_time(&self, from: &Permutation, eps: f64, max_steps: usize) -> Option<usize> {
        self.tv_mixing_profile(from, max_steps)
            .iter()
            .position(|&d| d < eps)
    }

    /// The spectral gap `1 − λ₂` of the chain, where `λ₂` is the
    /// second-largest eigenvalue (the chain is reversible, so the spectrum
    /// is real). The *relaxation time* `1 / gap` lower-bounds how many
    /// intervals the DP protocol needs to forget its ordering — the
    /// quantity the two-time-scale argument of Section V-A needs to be
    /// small relative to the debt drift.
    ///
    /// Computed by power iteration on the π-symmetrized matrix after
    /// deflating the known top eigenvector `√π`.
    #[must_use]
    pub fn spectral_gap(&self, tol: f64, max_iter: usize) -> f64 {
        let x = self.transition_matrix();
        let states = x.len();
        if states == 1 {
            return 1.0;
        }
        let pi = self.stationary_closed_form();
        let sqrt_pi: Vec<f64> = pi.iter().map(|&p| p.sqrt()).collect();
        // S[i][j] = sqrt(pi_i) X[i][j] / sqrt(pi_j) is symmetric for a
        // reversible chain and similar to X. Its top eigenvector is √π with
        // eigenvalue 1; deflate it and power-iterate for λ₂.
        let mut v: Vec<f64> = (0..states)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let deflate = |v: &mut [f64]| {
            let dot: f64 = v.iter().zip(&sqrt_pi).map(|(a, b)| a * b).sum();
            for (vi, si) in v.iter_mut().zip(&sqrt_pi) {
                *vi -= dot * si;
            }
        };
        let normalize = |v: &mut [f64]| -> f64 {
            let norm = v.iter().map(|a| a * a).sum::<f64>().sqrt();
            if norm > 0.0 {
                for vi in v.iter_mut() {
                    *vi /= norm;
                }
            }
            norm
        };
        deflate(&mut v);
        normalize(&mut v);
        let mut lambda = 0.0;
        let mut next = vec![0.0; states];
        for _ in 0..max_iter {
            for nv in next.iter_mut() {
                *nv = 0.0;
            }
            for (i, row) in x.iter().enumerate() {
                // (S v)_i = Σ_j sqrt(pi_i) X[i][j] / sqrt(pi_j) v_j — but
                // iterating S^T = S row-wise is the same by symmetry.
                let mut acc = 0.0;
                for (j, &p) in row.iter().enumerate() {
                    if p > 0.0 {
                        acc += p / sqrt_pi[j] * v[j];
                    }
                }
                next[i] = sqrt_pi[i] * acc;
            }
            deflate(&mut next);
            let norm = normalize(&mut next);
            std::mem::swap(&mut v, &mut next);
            if (norm - lambda).abs() < tol {
                lambda = norm;
                break;
            }
            lambda = norm;
        }
        // λ₂ may be negative in principle; power iteration returns |λ₂|,
        // a conservative gap either way.
        1.0 - lambda.min(1.0)
    }

    /// `1 / spectral_gap` — the chain's relaxation time in intervals.
    #[must_use]
    pub fn relaxation_time(&self) -> f64 {
        1.0 / self.spectral_gap(1e-12, 100_000).max(f64::MIN_POSITIVE)
    }
}

/// The product-form stationary distribution of Proposition 2 computed
/// directly from per-link *log odds* `ln(μ_n / (1 − μ_n))`, indexed by
/// [`Permutation::rank`].
///
/// Under the Eq. 14 coins the log odds are exactly `f(d_n⁺)·p_n − ln R`,
/// which stays representable even when `μ_n` itself would round to 1 in
/// floating point — this is the numerically faithful way to evaluate π*
/// for very large debts (the regime Proposition 4 argues about).
///
/// # Panics
///
/// Panics if `log_odds` is empty or longer than 8.
#[must_use]
pub fn stationary_from_log_odds(log_odds: &[f64]) -> Vec<f64> {
    let n = log_odds.len();
    assert!((1..=8).contains(&n), "need 1..=8 links");
    let states: usize = (1..=n).product();
    let mut logw = Vec::with_capacity(states);
    for sigma in Permutation::all(n) {
        let mut lw = 0.0;
        for (link, odds) in log_odds.iter().enumerate() {
            let g = (n - sigma.priority_of(rtmac_model::LinkId::new(link))) as f64;
            lw += g * odds;
        }
        logw.push(lw);
    }
    let max = logw.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let weights: Vec<f64> = logw.iter().map(|&lw| (lw - max).exp()).collect();
    let z: f64 = weights.iter().sum();
    weights.into_iter().map(|w| w / z).collect()
}

/// Runs the *actual* DP protocol engine with constant coin parameters and
/// returns the empirical distribution over priority permutations, indexed
/// by [`Permutation::rank`] — the end-to-end check that the implementation
/// realizes the theory of Proposition 2.
///
/// Every link receives one packet per interval, so the handshake always
/// completes (`r = 1`) given enough interval capacity.
///
/// # Panics
///
/// Panics if `mu` is empty, longer than 8, or contains values outside
/// `(0,1)`.
#[must_use]
pub fn empirical_sigma_distribution(mu: &[f64], intervals: usize, seed: u64) -> Vec<f64> {
    use rtmac::mac::{BatchedDpEngine, DpConfig, MacTiming};
    use rtmac::phy::channel::Bernoulli;
    use rtmac::phy::PhyProfile;
    use rtmac::sim::{Nanos, SeedStream};

    let n = mu.len();
    assert!((1..=8).contains(&n), "need 1..=8 links");
    assert!(
        mu.iter().all(|&m| m > 0.0 && m < 1.0),
        "every mu must lie in (0, 1)"
    );
    let timing = MacTiming::new(
        PhyProfile::ieee80211a(),
        // Generous interval: every link's packet plus slack always fits.
        Nanos::from_micros(400 * (n as u64 + 2)),
        100,
    );
    let mut engine = BatchedDpEngine::new(DpConfig::new(timing), n);
    let mut channel = Bernoulli::reliable(n);
    let mut rng = SeedStream::new(seed).rng(0);
    let states: usize = (1..=n).product();
    let mut counts = vec![0u64; states];
    let arrivals = vec![1u32; n];
    for _ in 0..intervals {
        let _ = engine.step(&arrivals, mu, &mut channel, &mut rng);
        counts[engine.sigma().rank() as usize] += 1;
    }
    counts
        .into_iter()
        .map(|c| c as f64 / intervals as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l1(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
    }

    #[test]
    fn rows_are_stochastic() {
        let chain = PriorityChain::new(vec![0.2, 0.5, 0.9], 0.8).unwrap();
        for row in chain.transition_matrix() {
            let sum: f64 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
            assert!(row.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn numeric_stationary_matches_closed_form_n3() {
        let chain = PriorityChain::new(vec![0.3, 0.6, 0.8], 1.0).unwrap();
        let num = chain.stationary_numeric(1e-13, 200_000);
        let closed = chain.stationary_closed_form();
        assert!(l1(&num, &closed) < 1e-9, "L1 = {}", l1(&num, &closed));
    }

    #[test]
    fn numeric_stationary_matches_closed_form_n4_with_partial_r() {
        // r < 1 scales all transition rates equally and must not change π*.
        let chain = PriorityChain::new(vec![0.25, 0.4, 0.55, 0.7], 0.37).unwrap();
        let num = chain.stationary_numeric(1e-13, 400_000);
        let closed = chain.stationary_closed_form();
        assert!(l1(&num, &closed) < 1e-8, "L1 = {}", l1(&num, &closed));
    }

    #[test]
    fn detailed_balance_holds() {
        let chain = PriorityChain::new(vec![0.3, 0.6, 0.8, 0.45], 0.9).unwrap();
        assert!(chain.max_detailed_balance_violation() < 1e-15);
    }

    #[test]
    fn chain_is_irreducible_and_aperiodic() {
        let chain = PriorityChain::new(vec![0.5, 0.5, 0.5], 1.0).unwrap();
        assert!(chain.is_irreducible());
        assert!(chain.is_aperiodic());
    }

    #[test]
    fn uniform_mu_gives_uniform_stationary() {
        // Equal odds make every permutation equally likely.
        let chain = PriorityChain::new(vec![0.5; 4], 1.0).unwrap();
        let pi = chain.stationary_closed_form();
        let expect = 1.0 / 24.0;
        assert!(pi.iter().all(|&p| (p - expect).abs() < 1e-12));
    }

    #[test]
    fn high_mu_link_concentrates_on_high_priority() {
        // Link 0 with μ close to 1 should hold priority 1 almost surely.
        let chain = PriorityChain::new(vec![0.999, 0.1, 0.1], 1.0).unwrap();
        let pi = chain.stationary_closed_form();
        let p_link0_first: f64 = Permutation::all(3)
            .filter(|s| s.priority_of(0.into()) == 1)
            .map(|s| pi[s.rank() as usize])
            .sum();
        assert!(p_link0_first > 0.99, "got {p_link0_first}");
    }

    #[test]
    fn mixing_profile_decreases_to_zero() {
        let chain = PriorityChain::new(vec![0.4, 0.5, 0.6], 1.0).unwrap();
        let worst_start = Permutation::from_priorities(vec![3, 2, 1]).unwrap();
        let profile = chain.tv_mixing_profile(&worst_start, 2000);
        assert!(profile[0] > 0.5);
        assert!(profile.last().unwrap() < &1e-3);
        // Monotone-ish decrease: final far below the first.
        let t = chain.mixing_time(&worst_start, 0.01, 5000).unwrap();
        assert!(t > 0 && t < 5000);
    }

    #[test]
    fn spectral_gap_matches_two_state_analytics() {
        // N = 2: states {12, 21}; transition rate each way is
        // (1−μ_i)·μ_j·r (the 1/(N−1) factor is 1). The second eigenvalue of
        // a 2-state chain with flip probabilities a, b is 1 − a − b.
        let (mu1, mu2, r) = (0.3, 0.6, 0.8);
        let chain = PriorityChain::new(vec![mu1, mu2], r).unwrap();
        let a = (1.0 - mu1) * mu2 * r; // identity -> swapped
        let b = (1.0 - mu2) * mu1 * r; // swapped -> identity
        let gap = chain.spectral_gap(1e-13, 200_000);
        assert!(
            (gap - (a + b)).abs() < 1e-9,
            "gap {gap} vs analytic {}",
            a + b
        );
        assert!((chain.relaxation_time() - 1.0 / (a + b)).abs() < 1e-6);
    }

    #[test]
    fn spectral_gap_shrinks_with_network_size() {
        // One swap pair among N−1 choices: larger networks mix slower.
        let gap = |n: usize| {
            PriorityChain::new(vec![0.5; n], 1.0)
                .unwrap()
                .spectral_gap(1e-12, 200_000)
        };
        let g3 = gap(3);
        let g5 = gap(5);
        assert!(g5 < g3, "gap should shrink: N=3 {g3} vs N=5 {g5}");
    }

    #[test]
    fn mixing_time_consistent_with_spectral_gap() {
        // Standard bound for reversible chains:
        //   t_mix(ε) ≤ t_relax · ln(1 / (ε · π_min)),
        // and t_mix(ε) ≳ (t_relax − 1) · ln(1 / 2ε).
        let chain = PriorityChain::new(vec![0.35, 0.5, 0.65, 0.45], 1.0).unwrap();
        let t_relax = chain.relaxation_time();
        let pi_min = chain
            .stationary_closed_form()
            .into_iter()
            .fold(f64::INFINITY, f64::min);
        let eps = 0.01;
        let worst = Permutation::from_priorities(vec![4, 3, 2, 1]).unwrap();
        let t_mix = chain.mixing_time(&worst, eps, 100_000).unwrap() as f64;
        let upper = t_relax * (1.0 / (eps * pi_min)).ln();
        let lower = (t_relax - 1.0) * (1.0 / (2.0 * eps)).ln();
        assert!(
            t_mix <= upper,
            "t_mix {t_mix} above the spectral upper bound {upper}"
        );
        // The lower bound holds for the worst-case start up to the
        // constant; use a generous slack factor.
        assert!(
            t_mix >= lower / 10.0,
            "t_mix {t_mix} implausibly below the spectral lower bound {lower}"
        );
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(PriorityChain::new(vec![], 1.0).is_err());
        assert!(PriorityChain::new(vec![0.0], 1.0).is_err());
        assert!(PriorityChain::new(vec![1.0], 1.0).is_err());
        assert!(PriorityChain::new(vec![0.5], 0.0).is_err());
        assert!(PriorityChain::new(vec![0.5], 1.5).is_err());
        assert!(PriorityChain::new(vec![0.5; 9], 1.0).is_err());
    }

    #[test]
    fn single_link_chain_is_trivial() {
        let chain = PriorityChain::new(vec![0.5], 1.0).unwrap();
        assert_eq!(chain.states(), 1);
        assert_eq!(chain.stationary_closed_form(), vec![1.0]);
        assert!(chain.is_irreducible());
        assert_eq!(chain.transition_matrix(), vec![vec![1.0]]);
    }

    #[test]
    fn engine_realizes_the_stationary_distribution() {
        // The end-to-end check: the real DP engine's empirical permutation
        // distribution converges to the closed form of Proposition 2.
        let mu = [0.3, 0.5, 0.7];
        let empirical = empirical_sigma_distribution(&mu, 300_000, 42);
        let chain = PriorityChain::new(mu.to_vec(), 1.0).unwrap();
        let closed = chain.stationary_closed_form();
        let tv: f64 = 0.5 * l1(&empirical, &closed);
        assert!(tv < 0.02, "TV distance {tv} too large");
    }
}
