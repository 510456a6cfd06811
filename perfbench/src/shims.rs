//! Timing and counting shims around the trait objects the program calls.
//!
//! Each shim forwards every trait method to the wrapped value unchanged —
//! same results, same random draws — and records calls and time on the
//! side, so a shimmed run must reproduce the plain run exactly (the
//! `shims_are_transparent` tests hold them to that).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rtmac::model::influence::DebtInfluence;
use rtmac::model::LinkId;
use rtmac::phy::channel::LossModel;
use rtmac::sim::SimRng;
use rtmac::traffic::ArrivalProcess;
use rtmac_net::{Frame, NetError, Transport};

use crate::clock::Stopwatch;
use crate::stats::micros;

/// Calls and busy time shared between a shim and the benchmark.
#[derive(Debug, Default)]
pub struct Probe {
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl Probe {
    /// A fresh, shareable probe.
    #[must_use]
    pub fn new_shared() -> Arc<Self> {
        Arc::new(Probe::default())
    }

    // The shims count from inside the program's hot paths; the calls name
    // `AtomicU64` explicitly so `rtmac-lint`'s name-based call graph does
    // not confuse them with `rtmac::sync`'s model-checked atomics.
    fn bump(&self) {
        // lint: allow(relaxed-ordering-audit) — a statistic that publishes no other data
        AtomicU64::fetch_add(&self.calls, 1, Ordering::Relaxed);
    }

    fn add_timed(&self, since: Stopwatch) {
        let nanos = u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX);
        // lint: allow(relaxed-ordering-audit) — a statistic that publishes no other data
        AtomicU64::fetch_add(&self.nanos, nanos, Ordering::Relaxed);
        self.bump();
    }

    /// Calls recorded so far.
    #[must_use]
    pub fn call_count(&self) -> u64 {
        // lint: allow(relaxed-ordering-audit) — read after the shimmed run; publishes nothing
        self.calls.load(Ordering::Relaxed)
    }

    /// Time spent inside timed calls so far.
    #[must_use]
    pub fn busy_time(&self) -> Duration {
        // lint: allow(relaxed-ordering-audit) — read after the shimmed run; publishes nothing
        Duration::from_nanos(self.nanos.load(Ordering::Relaxed))
    }
}

/// Times [`ArrivalProcess::sample`].
#[derive(Debug)]
pub struct TimedArrivals {
    inner: Box<dyn ArrivalProcess>,
    probe: Arc<Probe>,
}

impl TimedArrivals {
    /// Wraps `inner`, recording into `probe`.
    #[must_use]
    pub fn new(inner: Box<dyn ArrivalProcess>, probe: Arc<Probe>) -> Self {
        TimedArrivals { inner, probe }
    }
}

impl ArrivalProcess for TimedArrivals {
    fn n_links(&self) -> usize {
        self.inner.n_links()
    }

    fn sample(&mut self, rng: &mut SimRng, out: &mut Vec<u32>) {
        let started = Stopwatch::start();
        self.inner.sample(rng, out);
        self.probe.add_timed(started);
    }

    fn mean(&self, link: LinkId) -> f64 {
        self.inner.mean(link)
    }

    fn max_arrivals(&self) -> u32 {
        self.inner.max_arrivals()
    }
}

/// Counts [`DebtInfluence::eval`] calls — one per Eq. 14 coin `μ_n`.
#[derive(Debug)]
pub struct CountingInfluence {
    inner: Box<dyn DebtInfluence>,
    probe: Arc<Probe>,
}

impl CountingInfluence {
    /// Wraps `inner`, counting into `probe`.
    #[must_use]
    pub fn new(inner: Box<dyn DebtInfluence>, probe: Arc<Probe>) -> Self {
        CountingInfluence { inner, probe }
    }
}

impl DebtInfluence for CountingInfluence {
    fn eval(&self, x: f64) -> f64 {
        self.probe.bump();
        self.inner.eval(x)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Counts [`LossModel::attempt`] calls — one per data transmission.
#[derive(Debug)]
pub struct CountingLoss {
    inner: Box<dyn LossModel>,
    probe: Arc<Probe>,
}

impl CountingLoss {
    /// Wraps `inner`, counting into `probe`.
    #[must_use]
    pub fn new(inner: Box<dyn LossModel>, probe: Arc<Probe>) -> Self {
        CountingLoss { inner, probe }
    }
}

impl LossModel for CountingLoss {
    fn attempt(&mut self, link: LinkId, rng: &mut SimRng) -> bool {
        self.probe.bump();
        self.inner.attempt(link, rng)
    }

    fn mean_success(&self, link: LinkId) -> f64 {
        self.inner.mean_success(link)
    }

    fn n_links(&self) -> usize {
        self.inner.n_links()
    }
}

/// What one transport endpoint did over a node's run.
#[derive(Debug, Default, Clone)]
pub struct TransportStats {
    /// Frames broadcast (beacons and rebroadcasts included).
    pub frames_sent: u64,
    /// Time inside [`Transport::broadcast`].
    pub broadcast: Duration,
    /// Frames received.
    pub frames_recv: u64,
    /// Time inside [`Transport::recv`], timeouts included.
    pub recv: Duration,
    /// Microseconds between the first broadcasts of consecutive intervals:
    /// one full lockstep round each.
    pub rounds_us: Vec<f64>,
}

/// Times and counts a [`Transport`] endpoint's traffic. A node consumes
/// its transport, so the stats are handed to `sink` when the shim drops.
#[derive(Debug)]
pub struct TimedTransport<T: Transport> {
    inner: T,
    stats: TransportStats,
    last_round: Option<(u64, Stopwatch)>,
    sink: Arc<Mutex<Vec<TransportStats>>>,
}

impl<T: Transport> TimedTransport<T> {
    /// Wraps `inner`; its stats land in `sink` when the shim drops.
    #[must_use]
    pub fn new(inner: T, sink: Arc<Mutex<Vec<TransportStats>>>) -> Self {
        TimedTransport {
            inner,
            stats: TransportStats::default(),
            last_round: None,
            sink,
        }
    }
}

impl<T: Transport> Transport for TimedTransport<T> {
    fn broadcast(&mut self, frame: &Frame) -> Result<(), NetError> {
        let started = Stopwatch::start();
        if let Some(activity) = frame.activity() {
            match self.last_round {
                Some((interval, _)) if interval == activity.interval => {}
                Some((_, previous)) => {
                    self.stats
                        .rounds_us
                        .push(micros(started.started_after(previous)));
                    self.last_round = Some((activity.interval, started));
                }
                None => self.last_round = Some((activity.interval, started)),
            }
        }
        let result = self.inner.broadcast(frame);
        self.stats.broadcast += started.elapsed();
        self.stats.frames_sent += 1;
        result
    }

    fn recv(&mut self, timeout: Duration) -> Result<Option<Frame>, NetError> {
        let started = Stopwatch::start();
        let result = self.inner.recv(timeout);
        self.stats.recv += started.elapsed();
        if let Ok(Some(_)) = result {
            self.stats.frames_recv += 1;
        }
        result
    }

    fn local_link(&self) -> usize {
        self.inner.local_link()
    }

    fn n_links(&self) -> usize {
        self.inner.n_links()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

impl<T: Transport> Drop for TimedTransport<T> {
    fn drop(&mut self) {
        // A poisoned sink means another node panicked; that panic is
        // reported by its join, so the stats are simply dropped here.
        if let Ok(mut sink) = self.sink.lock() {
            sink.push(std::mem::take(&mut self.stats));
        }
    }
}
