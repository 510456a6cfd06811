//! Order statistics over timing samples.
//!
//! Every percentile the benchmark reports comes from [`Samples`], which
//! keeps the sample count next to the values and refuses a tail percentile
//! that fewer than [`MIN_BEYOND`] samples lie beyond: a tail read from a
//! handful of samples is one sample's noise, not a tail. Medians are
//! reported for any non-empty set.

/// The fewest samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// A sorted set of samples.
#[derive(Debug, Clone)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// Sorts `values` (NaNs sort last, so a NaN sample shows in the tail
    /// rather than vanishing).
    #[must_use]
    pub fn new(mut values: Vec<f64>) -> Self {
        values.sort_unstable_by(f64::total_cmp);
        Samples { sorted: values }
    }

    /// The number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// The samples, sorted, for reuse as a buffer.
    #[must_use]
    pub fn into_vec(self) -> Vec<f64> {
        self.sorted
    }

    /// The arithmetic mean, or `None` without samples.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        Some(self.sorted.iter().sum::<f64>() / self.sorted.len() as f64)
    }

    /// The nearest-rank `p`-th percentile (`50 < p < 100`), a tail.
    ///
    /// # Errors
    ///
    /// Refuses, naming the sample count, when fewer than [`MIN_BEYOND`]
    /// samples lie above the percentile's rank.
    pub fn percentile(&self, p: f64) -> Result<f64, String> {
        assert!(
            p > 50.0 && p < 100.0,
            "tail percentile {p} outside (50, 100)"
        );
        let n = self.sorted.len();
        let rank = self.nearest_rank(p);
        let beyond = n.saturating_sub(rank);
        if beyond < MIN_BEYOND {
            return Err(format!(
                "p{p} of {n} samples has {beyond} beyond it; at least {MIN_BEYOND} are required"
            ));
        }
        Ok(self.sorted[rank - 1])
    }

    /// The nearest-rank median.
    ///
    /// # Errors
    ///
    /// Fails without samples.
    pub fn median(&self) -> Result<f64, String> {
        if self.sorted.is_empty() {
            return Err("the median of no samples".into());
        }
        Ok(self.sorted[self.nearest_rank(50.0) - 1])
    }

    /// Nearest rank: the smallest rank `r ≥ 1` with `r/n ≥ p/100`.
    fn nearest_rank(&self, p: f64) -> usize {
        ((p / 100.0) * self.sorted.len() as f64).ceil().max(1.0) as usize
    }
}

/// Microseconds in a [`std::time::Duration`], as a float.
#[must_use]
pub fn micros(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The process's peak resident set size (`VmHWM`) in MiB, read from
/// `/proc/self/status`.
///
/// # Errors
///
/// Fails where `/proc` is unavailable or the field is missing.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM line {line:?}: {e}"))?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_uses_nearest_rank() {
        let s = Samples::new((1..=100).rev().map(f64::from).collect());
        assert_eq!(s.len(), 100);
        assert_eq!(s.median(), Ok(50.0));
        assert_eq!(s.percentile(90.0), Ok(90.0));
        assert_eq!(s.mean(), Some(50.5));
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let s = Samples::new((1..=100).map(f64::from).collect());
        // p90 leaves exactly 10 beyond; p91 leaves 9.
        assert!(s.percentile(90.0).is_ok());
        let err = s.percentile(91.0).unwrap_err();
        assert!(err.contains("of 100 samples"), "{err}");
        assert!(Samples::new(vec![1.0; 10]).percentile(90.0).is_err());
        // A median is reported for any non-empty set.
        assert_eq!(Samples::new(vec![3.0, 1.0, 2.0]).median(), Ok(2.0));
        assert!(Samples::new(Vec::new()).median().is_err());
        assert_eq!(Samples::new(Vec::new()).mean(), None);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert!(Samples::new(vec![0.0; 999]).percentile(99.0).is_err());
        assert!(Samples::new(vec![0.0; 1000]).percentile(99.0).is_ok());
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
