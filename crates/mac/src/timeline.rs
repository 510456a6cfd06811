//! ASCII rendering of DP-protocol traces — a textual Fig. 2.
//!
//! Given the [`TraceEvent`] timeline of one interval (enable with
//! [`DpConfig::with_trace`](crate::DpConfig::with_trace)), renders one row
//! per link with the medium time divided into columns: `#` marks a data
//! frame, `e` an empty priority-claim frame, `·` idle air. Sense checks and
//! committed swaps are annotated below.
//!
//! ```
//! use rtmac_mac::{BatchedDpEngine, DpConfig, MacTiming, timeline};
//! use rtmac_phy::{channel::Bernoulli, PhyProfile};
//! use rtmac_sim::{Nanos, SeedStream};
//!
//! let timing = MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_millis(2), 100);
//! let mut engine = BatchedDpEngine::new(DpConfig::new(timing.clone()).with_trace(true), 3);
//! let mut channel = Bernoulli::reliable(3);
//! let mut rng = SeedStream::new(1).rng(0);
//! let report = engine.step(&[1, 1, 1], &[0.5; 3], &mut channel, &mut rng);
//! let art = timeline::render(&report.trace, &timing, 3, 60);
//! assert!(art.contains("link#0"));
//! assert!(art.contains('#'));
//! ```

use std::fmt::Write as _;

use rtmac_sim::Nanos;

use crate::{FrameKind, MacTiming, TraceEvent};

/// Renders a trace as an ASCII timeline with `columns` time buckets.
///
/// # Panics
///
/// Panics if `columns == 0` or `n_links == 0`.
#[must_use]
pub fn render(trace: &[TraceEvent], timing: &MacTiming, n_links: usize, columns: usize) -> String {
    assert!(columns > 0, "need at least one column");
    assert!(n_links > 0, "need at least one link");
    let deadline = timing.deadline();
    let col_of = |t: Nanos| -> usize {
        ((t.as_nanos() as u128 * columns as u128) / deadline.as_nanos().max(1) as u128)
            .min(columns as u128 - 1) as usize
    };

    let mut rows = vec![vec!['\u{b7}'; columns]; n_links]; // '·'
    let mut notes: Vec<String> = Vec::new();
    let mut open: Vec<Option<(usize, FrameKind)>> = vec![None; n_links];

    for ev in trace {
        match ev {
            TraceEvent::TxStart { link, at, kind } => {
                open[link.index()] = Some((col_of(*at), *kind));
            }
            TraceEvent::TxEnd { link, at, .. } => {
                if let Some((start_col, kind)) = open[link.index()].take() {
                    let end_col = col_of(at.saturating_sub(Nanos::from_nanos(1))).max(start_col);
                    let ch = match kind {
                        FrameKind::Data => '#',
                        FrameKind::Empty => 'e',
                    };
                    for cell in &mut rows[link.index()][start_col..=end_col] {
                        *cell = ch;
                    }
                }
            }
            TraceEvent::SenseCheck { link, at, busy } => {
                notes.push(format!(
                    "  sense: {link} at {at} heard {}",
                    if *busy { "busy" } else { "idle" }
                ));
            }
            TraceEvent::SwapCommitted { upper } => {
                notes.push(format!("  swap: priorities {upper} <-> {}", upper + 1));
            }
            TraceEvent::Divergence { upper } => {
                notes.push(format!(
                    "  divergence: pair {upper}/{} committed inconsistently",
                    upper + 1
                ));
            }
            TraceEvent::BackoffSet { .. } => {}
        }
    }

    let mut out = String::new();
    let _ = writeln!(out, "interval timeline ({deadline} across {columns} cols)");
    for (i, row) in rows.iter().enumerate() {
        let _ = writeln!(out, "link#{i:<3}|{}|", row.iter().collect::<String>());
    }
    for note in notes {
        let _ = writeln!(out, "{note}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BatchedDpEngine, DpConfig};
    use rtmac_phy::channel::Bernoulli;
    use rtmac_phy::PhyProfile;
    use rtmac_sim::SeedStream;

    fn traced_report(n: usize, arrivals: &[u32]) -> (crate::DpIntervalReport, MacTiming) {
        let timing = MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_millis(2), 100);
        let mut engine = BatchedDpEngine::new(DpConfig::new(timing.clone()).with_trace(true), n);
        let mut channel = Bernoulli::reliable(n);
        let mut rng = SeedStream::new(2).rng(0);
        let mu = vec![0.5; n];
        let report = engine.step(arrivals, &mu, &mut channel, &mut rng).clone();
        (report, timing)
    }

    fn grids(art: &str) -> Vec<Vec<char>> {
        art.lines()
            .filter(|l| l.starts_with("link#"))
            .map(|r| {
                r.split('|')
                    .nth(1)
                    .expect("grid between pipes")
                    .chars()
                    .collect()
            })
            .collect()
    }

    #[test]
    fn renders_one_row_per_link_with_frames() {
        let (report, timing) = traced_report(3, &[1, 1, 1]);
        let art = render(&report.trace, &timing, 3, 80);
        let grids = grids(&art);
        assert_eq!(grids.len(), 3);
        // Each link's row shows its one data frame.
        for g in &grids {
            assert!(g.contains(&'#'), "row without a frame:\n{art}");
        }
    }

    #[test]
    fn empty_frames_render_differently() {
        // No arrivals: only candidates transmit empty claim frames.
        let (report, timing) = traced_report(4, &[0, 0, 0, 0]);
        let art = render(&report.trace, &timing, 4, 80);
        let grids = grids(&art);
        let flat: Vec<char> = grids.into_iter().flatten().collect();
        if report.outcome.empty_packets > 0 {
            assert!(flat.contains(&'e'));
        }
        assert!(!flat.contains(&'#'), "no data frames expected:\n{art}");
    }

    #[test]
    fn frames_do_not_overlap_across_links() {
        // Collision-freeness visually: with buckets finer than a backoff
        // slot (2 ms / 250 = 8 µs < 9 µs), no column holds two frames.
        let (report, timing) = traced_report(5, &[2, 1, 2, 1, 1]);
        let art = render(&report.trace, &timing, 5, 250);
        let grids = grids(&art);
        for col in 0..grids[0].len() {
            let busy = grids.iter().filter(|g| g[col] != '\u{b7}').count();
            assert!(busy <= 1, "column {col} has {busy} simultaneous frames");
        }
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn zero_columns_rejected() {
        let (report, timing) = traced_report(2, &[1, 1]);
        let _ = render(&report.trace, &timing, 2, 0);
    }
}
