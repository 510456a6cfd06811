//! Transmission priority vectors: permutations of `{1, …, N}`
//! (Definitions 7–9 of the paper).

use std::fmt;

use crate::LinkId;

/// An adjacent transposition: the exchange of priorities `m` and `m+1`
/// between the two links currently holding them (Definition 8).
///
/// `m` is the *upper* (numerically smaller, higher-ranked) of the two
/// priority indices, so `m ∈ {1, …, N−1}`. In the DP protocol the randomly
/// drawn swap candidate `C(k)` is exactly such an `m`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AdjacentTransposition {
    upper: usize,
}

impl AdjacentTransposition {
    /// Creates the transposition of priorities `upper` and `upper + 1`.
    ///
    /// # Panics
    ///
    /// Panics if `upper == 0` (priorities are 1-based).
    #[must_use]
    pub fn new(upper: usize) -> Self {
        assert!(upper >= 1, "priorities are 1-based");
        AdjacentTransposition { upper }
    }

    /// The higher (smaller-index) of the two priorities exchanged.
    #[must_use]
    pub fn upper(self) -> usize {
        self.upper
    }

    /// The lower (larger-index) of the two priorities exchanged.
    #[must_use]
    pub fn lower(self) -> usize {
        self.upper + 1
    }
}

impl fmt::Display for AdjacentTransposition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "swap({}, {})", self.upper, self.upper + 1)
    }
}

/// A transmission priority vector `σ = [σ_1, …, σ_N]`: a bijection from
/// links to priority indices `1..=N`, where index 1 is the highest priority
/// (Definition 7 and Section IV-A).
///
/// # Example
///
/// ```
/// use rtmac_model::{AdjacentTransposition, LinkId, Permutation};
///
/// // Example 1 of the paper: σ = [2,1,4,3], σ' = [2,4,1,3].
/// let sigma = Permutation::from_priorities(vec![2, 1, 4, 3])?;
/// let sigma_p = Permutation::from_priorities(vec![2, 4, 1, 3])?;
/// // Symmetric difference σ △ σ' = {links 2, 3} (1-based) = {1, 2} zero-based.
/// assert_eq!(sigma.symmetric_difference(&sigma_p),
///            vec![LinkId::new(1), LinkId::new(2)]);
///
/// // The DP protocol's reordering step: the links holding priorities 1 and 2
/// // exchange them.
/// let swapped = sigma.with(AdjacentTransposition::new(1));
/// assert_eq!(swapped.priorities(), [1, 2, 4, 3]);
/// assert_eq!(sigma.adjacent_transposition_to(&swapped),
///            Some(AdjacentTransposition::new(1)));
/// # Ok::<(), rtmac_model::ConfigError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Permutation {
    /// `priority_of[link] ∈ 1..=N`.
    priority_of: Vec<usize>,
    /// `link_at[priority − 1] = link` — the inverse map.
    link_at: Vec<usize>,
}

impl Permutation {
    /// The identity ordering: link `n` holds priority `n + 1`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        assert!(n >= 1, "a permutation needs at least one element");
        Permutation {
            priority_of: (1..=n).collect(),
            link_at: (0..n).collect(),
        }
    }

    /// Creates a permutation from the per-link priority vector
    /// (`priorities[link] ∈ 1..=N`, each exactly once).
    ///
    /// # Errors
    ///
    /// Returns [`crate::ConfigError::InvalidParameter`] if the vector is
    /// empty or is not a bijection onto `1..=N`.
    pub fn from_priorities(priorities: Vec<usize>) -> Result<Self, crate::ConfigError> {
        let n = priorities.len();
        if n == 0 {
            return Err(crate::ConfigError::InvalidParameter {
                name: "permutation length",
                value: 0.0,
            });
        }
        let mut link_at = vec![usize::MAX; n];
        for (link, &p) in priorities.iter().enumerate() {
            if p < 1 || p > n || link_at[p - 1] != usize::MAX {
                return Err(crate::ConfigError::InvalidParameter {
                    name: "priority vector",
                    value: p as f64,
                });
            }
            link_at[p - 1] = link;
        }
        Ok(Permutation {
            priority_of: priorities,
            link_at,
        })
    }

    /// Creates a permutation from a service order: `order[0]` gets priority
    /// 1, `order[1]` priority 2, and so on.
    ///
    /// # Errors
    ///
    /// Returns [`crate::ConfigError::InvalidParameter`] if `order` is empty
    /// or repeats / skips a link.
    pub fn from_order(order: &[LinkId]) -> Result<Self, crate::ConfigError> {
        let n = order.len();
        let mut priorities = vec![0usize; n];
        for (pos, link) in order.iter().enumerate() {
            let idx = link.index();
            if idx >= n || priorities[idx] != 0 {
                return Err(crate::ConfigError::InvalidParameter {
                    name: "service order",
                    value: idx as f64,
                });
            }
            priorities[idx] = pos + 1;
        }
        Self::from_priorities(priorities)
    }

    /// Number of links `N`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.priority_of.len()
    }

    /// Returns `true` if the permutation is empty (never constructible).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.priority_of.is_empty()
    }

    /// The priority index `σ_n ∈ 1..=N` of a link (1 = highest).
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    #[must_use]
    pub fn priority_of(&self, link: LinkId) -> usize {
        self.priority_of[link.index()]
    }

    /// The link currently holding priority `p ∈ 1..=N`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    #[must_use]
    pub fn link_with_priority(&self, p: usize) -> LinkId {
        assert!(p >= 1 && p <= self.len(), "priority out of range");
        LinkId::new(self.link_at[p - 1])
    }

    /// Links ordered from highest (priority 1) to lowest priority.
    #[must_use]
    pub fn service_order(&self) -> Vec<LinkId> {
        self.link_at.iter().map(|&l| LinkId::new(l)).collect()
    }

    /// The raw per-link priority vector.
    #[must_use]
    pub fn priorities(&self) -> &[usize] {
        &self.priority_of
    }

    /// The raw inverse map: `link_indices()[p − 1]` is the link holding
    /// priority `p`.
    #[must_use]
    pub fn link_indices(&self) -> &[usize] {
        &self.link_at
    }

    /// Overwrites the permutation in place from a per-link priority
    /// vector of the same length, without allocating.
    ///
    /// # Errors
    ///
    /// Returns [`crate::ConfigError::InvalidParameter`] if `priorities`
    /// differs in length or is not a bijection onto `1..=N`; `self` is
    /// then left unchanged.
    pub fn assign_priorities(&mut self, priorities: &[usize]) -> Result<(), crate::ConfigError> {
        let n = self.len();
        let invalid = |value: usize| crate::ConfigError::InvalidParameter {
            name: "priority vector",
            value: value as f64,
        };
        if priorities.len() != n {
            return Err(invalid(priorities.len()));
        }
        self.link_at.fill(usize::MAX);
        for (link, &p) in priorities.iter().enumerate() {
            if p < 1 || p > n || self.link_at[p - 1] != usize::MAX {
                for (l, &q) in self.priority_of.iter().enumerate() {
                    self.link_at[q - 1] = l;
                }
                return Err(invalid(p));
            }
            self.link_at[p - 1] = link;
        }
        self.priority_of.copy_from_slice(priorities);
        Ok(())
    }

    /// Applies an adjacent transposition in place: the links holding
    /// priorities `t.upper()` and `t.lower()` exchange them.
    ///
    /// # Panics
    ///
    /// Panics if `t.lower()` exceeds `N`.
    pub fn apply(&mut self, t: AdjacentTransposition) {
        let (hi, lo) = (t.upper(), t.lower());
        assert!(lo <= self.len(), "transposition out of range");
        let a = self.link_at[hi - 1];
        let b = self.link_at[lo - 1];
        self.link_at.swap(hi - 1, lo - 1);
        self.priority_of[a] = lo;
        self.priority_of[b] = hi;
    }

    /// Returns the permutation after an adjacent transposition, leaving
    /// `self` untouched.
    ///
    /// # Panics
    ///
    /// Panics if `t.lower()` exceeds `N`.
    #[must_use]
    pub fn with(&self, t: AdjacentTransposition) -> Permutation {
        let mut next = self.clone();
        next.apply(t);
        next
    }

    /// The symmetric difference `σ △ σ' = {n : σ_n ≠ σ'_n}` (Definition 9),
    /// as a sorted list of links.
    ///
    /// # Panics
    ///
    /// Panics if the permutations differ in length.
    #[must_use]
    pub fn symmetric_difference(&self, other: &Permutation) -> Vec<LinkId> {
        assert_eq!(self.len(), other.len(), "permutation lengths differ");
        self.priority_of
            .iter()
            .zip(&other.priority_of)
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(n, _)| LinkId::new(n))
            .collect()
    }

    /// If `other` differs from `self` by exactly one adjacent transposition,
    /// returns it; otherwise `None`.
    ///
    /// # Panics
    ///
    /// Panics if the permutations differ in length.
    #[must_use]
    pub fn adjacent_transposition_to(&self, other: &Permutation) -> Option<AdjacentTransposition> {
        let diff = self.symmetric_difference(other);
        if diff.len() != 2 {
            return None;
        }
        let (a, b) = (diff[0], diff[1]);
        let (pa, pb) = (self.priority_of(a), self.priority_of(b));
        if pa.abs_diff(pb) != 1 {
            return None;
        }
        // The exchange must be exact: other holds the swapped priorities.
        if other.priority_of(a) == pb && other.priority_of(b) == pa {
            Some(AdjacentTransposition::new(pa.min(pb)))
        } else {
            None
        }
    }

    /// Number of inversions — the minimum number of adjacent transpositions
    /// between `self` and the identity. Useful for mixing-time diagnostics.
    #[must_use]
    pub fn inversions(&self) -> usize {
        let v = &self.link_at;
        let mut count = 0;
        for i in 0..v.len() {
            for j in (i + 1)..v.len() {
                if v[i] > v[j] {
                    count += 1;
                }
            }
        }
        count
    }

    /// The rank of this permutation in `0..N!` under the Lehmer code of its
    /// service order. [`Permutation::from_rank`] inverts it.
    ///
    /// # Panics
    ///
    /// Panics if `N > 20` (the factorial would overflow `u64`).
    #[must_use]
    pub fn rank(&self) -> u64 {
        let n = self.len();
        assert!(n <= 20, "rank only supported up to N = 20");
        let seq = &self.link_at;
        let mut rank: u64 = 0;
        for i in 0..n {
            let smaller_after = seq[i + 1..].iter().filter(|&&x| x < seq[i]).count() as u64;
            rank = rank * (n - i) as u64 + smaller_after;
        }
        rank
    }

    /// Reconstructs the permutation of size `n` with the given
    /// [`rank`](Permutation::rank).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `n > 20`, or `rank >= n!`.
    #[must_use]
    pub fn from_rank(n: usize, mut rank: u64) -> Permutation {
        assert!(
            (1..=20).contains(&n),
            "rank only supported for 1 <= N <= 20"
        );
        let mut digits = vec![0u64; n];
        for i in (0..n).rev() {
            let base = (n - i) as u64;
            digits[i] = rank % base;
            rank /= base;
        }
        assert_eq!(rank, 0, "rank out of range for this N");
        let mut available: Vec<usize> = (0..n).collect();
        let mut link_at = Vec::with_capacity(n);
        for &d in &digits {
            link_at.push(available.remove(d as usize));
        }
        let mut priority_of = vec![0usize; n];
        for (pos, &link) in link_at.iter().enumerate() {
            priority_of[link] = pos + 1;
        }
        Permutation {
            priority_of,
            link_at,
        }
    }

    /// Iterates over all `N!` permutations of size `n`, in rank order.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > 12` (larger spaces are too big to
    /// enumerate; the Markov analyses cap well below this).
    pub fn all(n: usize) -> impl Iterator<Item = Permutation> {
        assert!(
            (1..=12).contains(&n),
            "exhaustive enumeration capped at N = 12"
        );
        let total = factorial(n);
        (0..total).map(move |r| Permutation::from_rank(n, r))
    }
}

/// `n!` as a `u64`.
///
/// # Panics
///
/// Panics if `n > 20`.
#[must_use]
pub(crate) fn factorial(n: usize) -> u64 {
    assert!(n <= 20, "factorial overflows u64 beyond 20");
    (1..=n as u64).product()
}

impl fmt::Debug for Permutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Permutation{:?}", self.priority_of)
    }
}

impl fmt::Display for Permutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, p) in self.priority_of.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identity_maps_link_to_index_plus_one() {
        let p = Permutation::identity(4);
        for n in 0..4 {
            assert_eq!(p.priority_of(LinkId::new(n)), n + 1);
            assert_eq!(p.link_with_priority(n + 1), LinkId::new(n));
        }
        assert_eq!(p.inversions(), 0);
    }

    #[test]
    fn from_priorities_validates_bijection() {
        assert!(Permutation::from_priorities(vec![1, 2, 3]).is_ok());
        assert!(Permutation::from_priorities(vec![1, 1, 3]).is_err());
        assert!(Permutation::from_priorities(vec![0, 1, 2]).is_err());
        assert!(Permutation::from_priorities(vec![1, 2, 4]).is_err());
        assert!(Permutation::from_priorities(vec![]).is_err());
    }

    #[test]
    fn assign_priorities_rewrites_in_place_or_leaves_self_alone() {
        let mut p = Permutation::identity(3);
        p.assign_priorities(&[3, 1, 2]).unwrap();
        assert_eq!(p, Permutation::from_priorities(vec![3, 1, 2]).unwrap());
        assert_eq!(p.link_indices(), [1, 2, 0]);
        for bad in [&[1, 1, 3][..], &[0, 1, 2], &[1, 2, 4], &[1, 2]] {
            assert!(p.assign_priorities(bad).is_err());
            assert_eq!(p, Permutation::from_priorities(vec![3, 1, 2]).unwrap());
        }
    }

    #[test]
    fn from_order_inverts_service_order() {
        let order = [LinkId::new(2), LinkId::new(0), LinkId::new(1)];
        let p = Permutation::from_order(&order).unwrap();
        assert_eq!(p.priority_of(LinkId::new(2)), 1);
        assert_eq!(p.service_order(), order);
        assert!(Permutation::from_order(&[LinkId::new(0), LinkId::new(0)]).is_err());
    }

    #[test]
    fn paper_example_1_symmetric_difference() {
        // σ = [2,1,4,3], σ' = [2,4,1,3]: σ△σ' = {2,3} in the paper's
        // 1-based indexing = links 1 and 2 zero-based.
        let sigma = Permutation::from_priorities(vec![2, 1, 4, 3]).unwrap();
        let sigma_p = Permutation::from_priorities(vec![2, 4, 1, 3]).unwrap();
        assert_eq!(
            sigma.symmetric_difference(&sigma_p),
            vec![LinkId::new(1), LinkId::new(2)]
        );
        // The exchanged entries are σ_2 = 1 and σ_3 = 4, whose values differ
        // by 3, so under Definition 8 (|σ_i − σ_j| = 1) this particular pair
        // is NOT an adjacent transposition — the DP protocol only ever
        // exchanges *consecutive* priorities, which is what `apply` does.
        assert!(sigma.adjacent_transposition_to(&sigma_p).is_none());
    }

    #[test]
    fn apply_swaps_adjacent_priorities() {
        let mut p = Permutation::identity(4);
        p.apply(AdjacentTransposition::new(2));
        // Links 1 and 2 (zero-based) exchanged priorities 2 and 3.
        assert_eq!(p.priorities(), [1, 3, 2, 4]);
        assert_eq!(p.link_with_priority(2), LinkId::new(2));
        assert_eq!(p.link_with_priority(3), LinkId::new(1));
        // Applying the same transposition twice restores the identity.
        p.apply(AdjacentTransposition::new(2));
        assert_eq!(p, Permutation::identity(4));
    }

    #[test]
    fn adjacent_transposition_detected() {
        let p = Permutation::identity(5);
        let q = p.with(AdjacentTransposition::new(3));
        assert_eq!(
            p.adjacent_transposition_to(&q),
            Some(AdjacentTransposition::new(3))
        );
        assert_eq!(p.adjacent_transposition_to(&p), None);
        // Two disjoint swaps are not a single adjacent transposition.
        let r = q.with(AdjacentTransposition::new(1));
        assert_eq!(p.adjacent_transposition_to(&r), None);
    }

    #[test]
    fn rank_roundtrip_small() {
        for n in 1..=5 {
            let total = factorial(n);
            for r in 0..total {
                let p = Permutation::from_rank(n, r);
                assert_eq!(p.rank(), r, "rank roundtrip failed at n={n} r={r}");
            }
        }
    }

    #[test]
    fn all_enumerates_n_factorial_distinct() {
        let perms: Vec<Permutation> = Permutation::all(4).collect();
        assert_eq!(perms.len(), 24);
        let mut ranks: Vec<u64> = perms.iter().map(Permutation::rank).collect();
        ranks.dedup();
        assert_eq!(ranks.len(), 24);
    }

    #[test]
    fn inversions_counts_disorder() {
        // Full reversal of 4 elements has 4·3/2 = 6 inversions.
        let p = Permutation::from_priorities(vec![4, 3, 2, 1]).unwrap();
        assert_eq!(p.inversions(), 6);
    }

    #[test]
    fn display_shows_priority_vector() {
        let p = Permutation::from_priorities(vec![2, 1, 3]).unwrap();
        assert_eq!(p.to_string(), "[2,1,3]");
        assert!(format!("{p:?}").contains("Permutation"));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn apply_out_of_range_panics() {
        Permutation::identity(3).apply(AdjacentTransposition::new(3));
    }

    #[test]
    fn disjoint_adjacent_swaps_commute() {
        // |upper_i − upper_j| ≥ 2 ⇒ the transpositions act on disjoint
        // priority pairs, so composition order is irrelevant — this is
        // what lets the DP engine commit an interval's swap set without
        // ordering concerns (candidates are non-adjacent by construction).
        let s1 = AdjacentTransposition::new(1);
        let s3 = AdjacentTransposition::new(3);
        for p in Permutation::all(5) {
            assert_eq!(p.with(s1).with(s3), p.with(s3).with(s1));
        }
        // Overlapping swaps do NOT commute (braid relation): s1·s2 ≠ s2·s1.
        let s2 = AdjacentTransposition::new(2);
        let id = Permutation::identity(3);
        assert_ne!(id.with(s1).with(s2), id.with(s2).with(s1));
    }

    #[test]
    fn inverse_round_trips() {
        for p in Permutation::all(4) {
            // service_order ∘ from_order is the identity on permutations.
            assert_eq!(Permutation::from_order(&p.service_order()).unwrap(), p);
            // priority_of and link_with_priority are mutually inverse.
            for q in 1..=4 {
                assert_eq!(p.priority_of(p.link_with_priority(q)), q);
            }
            for link in LinkId::all(4) {
                assert_eq!(p.link_with_priority(p.priority_of(link)), link);
            }
        }
    }

    proptest! {
        /// Round-trip: priorities -> Permutation -> priorities.
        #[test]
        fn prop_priorities_roundtrip(n in 1usize..8, seed in 0u64..1000) {
            use rand::seq::SliceRandom;
            use rand::SeedableRng;
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let mut v: Vec<usize> = (1..=n).collect();
            v.shuffle(&mut rng);
            let p = Permutation::from_priorities(v.clone()).unwrap();
            prop_assert_eq!(p.priorities(), &v[..]);
            prop_assert_eq!(Permutation::from_rank(n, p.rank()), p);
        }

        /// apply() preserves the bijection invariant and is an involution.
        #[test]
        fn prop_apply_involution(n in 2usize..8, upper in 1usize..7, seed in 0u64..1000) {
            prop_assume!(upper < n);
            use rand::seq::SliceRandom;
            use rand::SeedableRng;
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let mut v: Vec<usize> = (1..=n).collect();
            v.shuffle(&mut rng);
            let p = Permutation::from_priorities(v).unwrap();
            let t = AdjacentTransposition::new(upper);
            let q = p.with(t);
            // Still a valid bijection:
            prop_assert!(Permutation::from_priorities(q.priorities().to_vec()).is_ok());
            // Involution:
            prop_assert_eq!(q.with(t), p.clone());
            // Exactly the two swapped links differ:
            prop_assert_eq!(p.symmetric_difference(&q).len(), 2);
            prop_assert_eq!(p.adjacent_transposition_to(&q), Some(t));
        }

        /// Arbitrary adjacent-swap sequences keep σ a bijection at every
        /// step, and replaying the sequence in reverse undoes it (each
        /// transposition is its own inverse).
        #[test]
        fn prop_swap_sequences_preserve_bijectivity(
            n in 2usize..8,
            uppers in proptest::collection::vec(1usize..7, 0..20),
        ) {
            let start = Permutation::identity(n);
            let mut p = start.clone();
            let applied: Vec<AdjacentTransposition> = uppers
                .iter()
                .filter(|&&u| u < n)
                .map(|&u| AdjacentTransposition::new(u))
                .collect();
            for &t in &applied {
                p.apply(t);
                prop_assert!(
                    Permutation::from_priorities(p.priorities().to_vec()).is_ok(),
                    "σ stopped being a bijection mid-sequence: {}",
                    p
                );
            }
            for &t in applied.iter().rev() {
                p.apply(t);
            }
            prop_assert_eq!(p, start);
        }
    }
}
