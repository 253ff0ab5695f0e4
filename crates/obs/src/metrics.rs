//! The metrics registry: named counters, gauges and log-bucketed
//! histograms with atomic, lock-free hot paths.
//!
//! Registration takes a write lock once per metric name; after that every
//! update is a single atomic RMW on a shared `Arc`. Counters are
//! additionally **striped**: a [`ShardedCounter`] spreads increments over
//! cache-line-padded stripes (one picked per thread) so eight workers
//! bumping `manager.items` don't serialise on one cache line; stripes are
//! folded back into a single value at snapshot time, so the `BTreeMap`
//! snapshot API and the telemetry digest are unchanged. Snapshots render
//! into `BTreeMap`s so their text form (and hence the digest printed in
//! provenance footers) is byte-stable across runs: counters and histograms
//! are pure sums, so a deterministic workload produces the same snapshot
//! no matter how many worker threads updated them.
//!
//! Wall-clock phase timings are deliberately kept in a separate side table
//! ([`Registry::timings`]) that is *excluded* from [`Snapshot`] and its
//! digest: wall time is never deterministic, and the digest must be.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

/// Stripes per [`ShardedCounter`] — enough that a typical worker fleet
/// maps to distinct stripes, small enough to stay cheap to fold.
pub const COUNTER_STRIPES: usize = 16;

/// One cache line worth of counter, so neighbouring stripes never
/// false-share.
#[derive(Debug, Default)]
#[repr(align(64))]
struct PaddedU64(AtomicU64);

/// Round-robin stripe assignment: each thread picks a stripe once and
/// keeps it for life, so a worker's increments always hit the same line.
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

fn stripe_id() -> usize {
    thread_local! {
        static STRIPE: usize =
            NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % COUNTER_STRIPES;
    }
    STRIPE.with(|s| *s)
}

/// A counter whose increments land on a per-thread stripe and whose value
/// is the fold of all stripes. Handles are cheap to clone and live as long
/// as their registry.
#[derive(Debug)]
pub struct ShardedCounter {
    stripes: [PaddedU64; COUNTER_STRIPES],
}

impl Default for ShardedCounter {
    fn default() -> ShardedCounter {
        ShardedCounter { stripes: std::array::from_fn(|_| PaddedU64::default()) }
    }
}

impl ShardedCounter {
    /// Bump this thread's stripe.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.stripes[stripe_id()].0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Fold the stripes into the counter's value.
    pub fn sum(&self) -> u64 {
        self.stripes.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
    }
}

/// Number of log2 buckets in a histogram (values are u64, so 65 covers
/// zero plus every power-of-two magnitude).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A log-bucketed histogram: bucket `0` counts zeros, bucket `k` counts
/// values in `[2^(k-1), 2^k)`.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// Bucket index for a value: 0 for 0, else `64 - leading_zeros(v)`.
pub fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

impl Histogram {
    pub fn observe(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<(usize, u64)> = self
            .buckets
            .iter()
            .enumerate()
            .map(|(i, b)| (i, b.load(Ordering::Relaxed)))
            .filter(|(_, n)| *n > 0)
            .collect();
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Frozen view of one histogram; only non-empty buckets are kept.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    /// `(bucket index, count)` for non-empty buckets, ascending.
    pub buckets: Vec<(usize, u64)>,
}

impl HistogramSnapshot {
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile `q` in `[0, 1]` from the log2 buckets: the
    /// midpoint of the bucket holding the `ceil(q·count)`-th observation.
    /// Resolution is the bucket width (a factor of two) — plenty for the
    /// p50/p99 latency lines in bench output, not for microbenchmarks.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(b, n) in &self.buckets {
            seen += n;
            if seen >= target {
                if b == 0 {
                    return 0;
                }
                let lo = 1u64 << (b - 1);
                let hi = if b >= 64 { u64::MAX } else { 1u64 << b };
                return lo + (hi - lo) / 2;
            }
        }
        // Unreachable when count == Σ bucket counts; be defensive.
        self.buckets.last().map(|&(b, _)| 1u64 << (b.min(63))).unwrap_or(0)
    }
}

/// Frozen, ordered view of the whole registry — the deterministic part.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, i64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// Metric-name prefixes for values that reflect scheduling and caching
/// luck rather than the modelled crawl: compile-cache hit/miss counts
/// change with worker interleaving and process-level cache warmth,
/// archive bookkeeping depends on whether a run records, replays, or does
/// neither, the scheduler's per-item wall latency depends on worker count
/// and OS scheduling, checkpoint I/O accounting depends on whether (and
/// where) a run was interrupted, the `crash.*` recovery counters exist only on
/// resumed runs, the `prof.*` phase-profiler metrics are wall-clock
/// measurements by definition, and the `match.*` static-matcher metrics
/// include a verdict-memo hit/miss split that moves with which worker
/// first sees a shared script body. These metrics appear in [`Snapshot::render`] and the
/// `[stats]` summary, but are excluded from
/// [`Snapshot::render_deterministic`] and the telemetry
/// [`Snapshot::digest`] — the digest must be byte-identical with the
/// compile cache on and off, at any worker count, between a live run and
/// its archive replay, and between an uninterrupted crawl and one that
/// crashed and resumed.
pub const NONDETERMINISTIC_PREFIXES: &[&str] =
    &["cache.", "archive.", "sched.", "checkpoint.", "crash.", "prof.", "match."];

impl Snapshot {
    fn render_where(&self, include: impl Fn(&str) -> bool) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            if include(name) {
                out.push_str(&format!("counter {name} {v}\n"));
            }
        }
        for (name, v) in &self.gauges {
            if include(name) {
                out.push_str(&format!("gauge {name} {v}\n"));
            }
        }
        for (name, h) in &self.histograms {
            if !include(name) {
                continue;
            }
            out.push_str(&format!("histogram {name} count={} sum={} buckets=", h.count, h.sum));
            for (i, (b, n)) in h.buckets.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{b}:{n}"));
            }
            out.push('\n');
        }
        out
    }

    /// Stable text rendering (one line per metric, BTreeMap order).
    pub fn render(&self) -> String {
        self.render_where(|_| true)
    }

    /// [`Snapshot::render`] minus the [`NONDETERMINISTIC_PREFIXES`]
    /// metrics: a function of (seed, fault plan) alone.
    pub fn render_deterministic(&self) -> String {
        self.render_where(|name| !NONDETERMINISTIC_PREFIXES.iter().any(|p| name.starts_with(p)))
    }

    /// FNV-1a digest of the deterministic rendering — the telemetry digest
    /// carried by provenance footers.
    pub fn digest(&self) -> u64 {
        crate::fnv1a(self.render_deterministic().as_bytes())
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// The metrics registry. Each [`crate::Telemetry`] owns one.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<HashMap<&'static str, Arc<ShardedCounter>>>,
    gauges: RwLock<HashMap<&'static str, Arc<AtomicI64>>>,
    histograms: RwLock<HashMap<&'static str, Arc<Histogram>>>,
    /// Wall-clock phase timings `(name, duration)`, in completion order.
    /// Non-deterministic by nature; excluded from snapshots and digests.
    timings: Mutex<Vec<(String, Duration)>>,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Handle to a named counter (registering it on first use). Callers on
    /// hot paths should hold the handle rather than re-looking it up.
    pub fn counter(&self, name: &'static str) -> Arc<ShardedCounter> {
        if let Some(c) = self.counters.read().unwrap().get(name) {
            return c.clone();
        }
        self.counters.write().unwrap().entry(name).or_default().clone()
    }

    pub fn gauge(&self, name: &'static str) -> Arc<AtomicI64> {
        if let Some(g) = self.gauges.read().unwrap().get(name) {
            return g.clone();
        }
        self.gauges.write().unwrap().entry(name).or_default().clone()
    }

    pub fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        if let Some(h) = self.histograms.read().unwrap().get(name) {
            return h.clone();
        }
        self.histograms.write().unwrap().entry(name).or_default().clone()
    }

    /// [`Registry::counter`] for a name that is not a `'static` literal —
    /// the crash-resume path restores metric deltas whose names arrive as
    /// strings decoded from a checkpoint. Lookup is content-based (so the
    /// handle is shared with literal-keyed callers); a genuinely new name
    /// is interned once. The metric namespace is small and closed, so the
    /// leak is bounded.
    pub fn counter_by_name(&self, name: &str) -> Arc<ShardedCounter> {
        if let Some(c) = self.counters.read().unwrap().get(name) {
            return c.clone();
        }
        let interned: &'static str = Box::leak(name.to_string().into_boxed_str());
        self.counters.write().unwrap().entry(interned).or_default().clone()
    }

    /// [`Registry::histogram`] by string name; see [`Registry::counter_by_name`].
    pub fn histogram_by_name(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = self.histograms.read().unwrap().get(name) {
            return h.clone();
        }
        let interned: &'static str = Box::leak(name.to_string().into_boxed_str());
        self.histograms.write().unwrap().entry(interned).or_default().clone()
    }

    pub fn add(&self, name: &'static str, delta: u64) {
        self.counter(name).add(delta);
    }

    pub fn gauge_set(&self, name: &'static str, v: i64) {
        self.gauge(name).store(v, Ordering::Relaxed);
    }

    pub fn observe(&self, name: &'static str, v: u64) {
        self.histogram(name).observe(v);
    }

    /// Record a completed wall-clock phase timing.
    pub fn record_timing(&self, name: &str, d: Duration) {
        self.timings.lock().unwrap().push((name.to_string(), d));
    }

    pub fn timings(&self) -> Vec<(String, Duration)> {
        self.timings.lock().unwrap().clone()
    }

    /// Freeze the deterministic metrics into an ordered snapshot.
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .counters
            .read()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.to_string(), v.sum()))
            .filter(|(_, v)| *v > 0)
            .collect();
        let gauges = self
            .gauges
            .read()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.to_string(), v.load(Ordering::Relaxed)))
            .collect();
        let histograms = self
            .histograms
            .read()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.to_string(), v.snapshot()))
            .filter(|(_, h)| h.count > 0)
            .collect();
        Snapshot { counters, gauges, histograms }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn counters_accumulate_and_snapshot_ordered() {
        let r = Registry::new();
        r.add("b.two", 2);
        r.add("a.one", 1);
        r.add("b.two", 3);
        let snap = r.snapshot();
        assert_eq!(snap.counter("a.one"), 1);
        assert_eq!(snap.counter("b.two"), 5);
        let render = snap.render();
        let a = render.find("a.one").unwrap();
        let b = render.find("b.two").unwrap();
        assert!(a < b, "snapshot must render in name order");
    }

    #[test]
    fn histogram_observes_and_means() {
        let r = Registry::new();
        r.observe("h", 0);
        r.observe("h", 1);
        r.observe("h", 1000);
        let snap = r.snapshot();
        let h = &snap.histograms["h"];
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 1001);
        assert_eq!(h.buckets, vec![(0, 1), (1, 1), (10, 1)]);
        assert!((h.mean() - 1001.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let r = Registry::new();
        r.add("x", 7);
        let d1 = r.snapshot().digest();
        assert_eq!(d1, r.snapshot().digest());
        r.add("x", 1);
        assert_ne!(d1, r.snapshot().digest());
    }

    #[test]
    fn concurrent_updates_sum_exactly() {
        let r = Arc::new(Registry::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let r = r.clone();
                s.spawn(move || {
                    let c = r.counter("spam");
                    for _ in 0..10_000 {
                        c.add(1);
                    }
                });
            }
        });
        assert_eq!(r.snapshot().counter("spam"), 80_000);
    }

    #[test]
    fn sharded_counter_folds_across_threads() {
        // More threads than stripes: every stripe gets reused, and the
        // fold must still be exact.
        let c = ShardedCounter::default();
        std::thread::scope(|s| {
            for _ in 0..(COUNTER_STRIPES + 5) {
                s.spawn(|| {
                    for _ in 0..1_000 {
                        c.add(3);
                    }
                });
            }
        });
        assert_eq!(c.sum(), 3_000 * (COUNTER_STRIPES as u64 + 5));
    }

    #[test]
    fn quantile_from_log_buckets() {
        let r = Registry::new();
        for v in [0u64, 1, 1, 3, 100, 100, 100, 100, 100, 1000] {
            r.observe("q", v);
        }
        let snap = r.snapshot();
        let h = &snap.histograms["q"];
        // p10 ≈ the single zero; p50 lands in the [64,128) bucket that
        // holds the 100s; p100 in [512,1024).
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(0.1), 0);
        assert_eq!(h.quantile(0.5), 96);
        assert_eq!(h.quantile(1.0), 768);
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0);
    }

    #[test]
    fn sched_metrics_excluded_from_digest_but_rendered() {
        let r = Registry::new();
        r.add("records.js_calls", 3);
        let before = r.snapshot().digest();
        r.observe("sched.visit_wall_us", 900);
        let snap = r.snapshot();
        assert_eq!(before, snap.digest(), "sched.* must not perturb the digest");
        assert!(snap.render().contains("histogram sched.visit_wall_us"));
        assert!(!snap.render_deterministic().contains("sched."));
    }

    #[test]
    fn prof_metrics_excluded_from_digest_but_rendered() {
        let r = Registry::new();
        r.add("records.js_calls", 3);
        let before = r.snapshot().digest();
        r.add("prof.self.visit", 1_200);
        r.add("prof.builtin.getTime", 4);
        r.observe("prof.visit_us", 1_500);
        r.observe("prof.jsengine.interp_us", 300);
        let snap = r.snapshot();
        assert_eq!(before, snap.digest(), "prof.* must not perturb the digest");
        assert!(snap.render().contains("prof.self.visit 1200"));
        assert!(snap.render().contains("histogram prof.visit_us"));
        assert!(!snap.render_deterministic().contains("prof."));
    }

    #[test]
    fn timings_excluded_from_digest() {
        let r = Registry::new();
        r.add("c", 1);
        let before = r.snapshot().digest();
        r.record_timing("scan", Duration::from_secs(1));
        assert_eq!(before, r.snapshot().digest());
    }

    #[test]
    fn cache_metrics_excluded_from_digest_but_rendered() {
        let r = Registry::new();
        r.add("records.js_calls", 3);
        let before = r.snapshot().digest();
        r.add("cache.compile.hit", 7);
        r.add("cache.compile.miss", 2);
        r.add("cache.compile.bytes", 4096);
        let snap = r.snapshot();
        assert_eq!(before, snap.digest(), "cache.* must not perturb the digest");
        assert!(snap.render().contains("cache.compile.hit 7"));
        assert!(!snap.render_deterministic().contains("cache."));
        assert!(snap.render_deterministic().contains("records.js_calls 3"));
    }

    #[test]
    fn crash_and_checkpoint_metrics_excluded_from_digest_but_rendered() {
        let r = Registry::new();
        r.add("records.js_calls", 3);
        let before = r.snapshot().digest();
        r.add("crash.resume", 1);
        r.add("crash.tail_dropped", 2);
        r.add("crash.revisits", 5);
        r.add("checkpoint.writes", 120);
        r.add("checkpoint.replays", 115);
        r.add("checkpoint.lines_dropped", 1);
        let snap = r.snapshot();
        assert_eq!(before, snap.digest(), "crash./checkpoint. must not perturb the digest");
        assert!(snap.render().contains("crash.revisits 5"));
        assert!(snap.render().contains("checkpoint.writes 120"));
        assert!(!snap.render_deterministic().contains("crash."));
        assert!(!snap.render_deterministic().contains("checkpoint."));
    }

    #[test]
    fn by_name_handles_alias_literal_keyed_metrics() {
        let r = Registry::new();
        r.add("aliased.counter", 3);
        let dynamic = String::from("aliased.") + "counter";
        r.counter_by_name(&dynamic).add(4);
        assert_eq!(r.snapshot().counter("aliased.counter"), 7);
        let hname = String::from("aliased.") + "hist";
        r.histogram_by_name(&hname).observe(9);
        r.observe("aliased.hist", 9);
        assert_eq!(r.snapshot().histograms["aliased.hist"].count, 2);
    }

    #[test]
    fn archive_metrics_excluded_from_digest_but_rendered() {
        let r = Registry::new();
        r.add("records.js_calls", 3);
        let before = r.snapshot().digest();
        r.add("archive.write.entries", 200);
        r.add("archive.write.blobs", 41);
        r.add("archive.dedup.hits", 159);
        let snap = r.snapshot();
        assert_eq!(before, snap.digest(), "archive.* must not perturb the digest");
        assert!(snap.render().contains("archive.dedup.hits 159"));
        assert!(!snap.render_deterministic().contains("archive."));
    }
}
