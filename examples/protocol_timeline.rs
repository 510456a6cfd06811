//! Watch the DP protocol on the air, interval by interval: an ASCII
//! rendering of the collision-free backoff staircase (the paper's Fig. 2),
//! the candidates' carrier-sense checks, and the committed priority swaps.
//!
//! ```sh
//! cargo run --release --example protocol_timeline
//! ```

use rtmac::mac::{timeline, BatchedDpEngine, DpConfig, MacTiming};
use rtmac::phy::{channel::Bernoulli, PhyProfile};
use rtmac::sim::{Nanos, SeedStream};

fn main() {
    let timing = MacTiming::new(PhyProfile::ieee80211a(), Nanos::from_millis(2), 100);
    let mut engine = BatchedDpEngine::new(DpConfig::new(timing.clone()).with_trace(true), 6);
    let mut channel = Bernoulli::new(vec![0.8; 6]).expect("valid channel");
    let seeds = SeedStream::new(2018);
    let mut rng = seeds.rng(0);

    println!("6 links, 2 ms intervals, p = 0.8, one packet per link per interval");
    println!("legend: # data frame   e empty priority-claim frame   \u{b7} idle\n");
    for k in 0..4 {
        let report = engine
            .step(&[1; 6], &[0.5; 6], &mut channel, &mut rng)
            .clone();
        println!(
            "interval {k}: sigma = {}  candidates C = {:?}  swaps = {:?}",
            engine.sigma(),
            report.candidates,
            report
                .swaps
                .iter()
                .map(|s| (s.upper(), s.lower()))
                .collect::<Vec<_>>(),
        );
        print!("{}", timeline::render(&report.trace, &timing, 6, 100));
        println!();
    }
    println!(
        "note how the transmission staircase follows the priority vector, \
         one idle slot between consecutive links, and how a committed swap \
         reorders the staircase in the next interval."
    );
}
