//! The metrics registry: named counters and log-bucketed histograms
//! behind one lock.
//!
//! Inside a visit scope, [`crate::add`] and [`crate::observe`] touch only
//! the scope's thread-local [`ScopeMetrics`] delta; the registry takes the
//! whole delta in one [`Registry::merge`] when the scope closes, and a
//! resumed bundle entry's delta goes through that same merge
//! ([`crate::restore_metrics`]). So a worker takes the lock once per visit,
//! not once per update; only code outside any scope (crawl-level counters,
//! the scheduler's own metrics) writes the registry directly. Snapshots
//! render into `BTreeMap`s so their text form (and hence the digest
//! printed in provenance footers) is byte-stable across runs: counters and
//! histograms are pure sums, so a deterministic workload produces the same
//! snapshot no matter how many worker threads updated them or in which
//! order their deltas merged.
//!
//! Wall-clock phase timings are deliberately kept in a separate side table
//! ([`Registry::timings`]) that is *excluded* from [`Snapshot`] and its
//! digest: wall time is never deterministic, and the digest must be.

use crate::scope::ScopeMetrics;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// Number of log2 buckets in a histogram (values are u64, so 65 covers
/// zero plus every power-of-two magnitude).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A log-bucketed histogram: bucket `0` counts zeros, bucket `k` counts
/// values in `[2^(k-1), 2^k)`.
#[derive(Debug)]
struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram { buckets: [0; HISTOGRAM_BUCKETS], count: 0, sum: 0 }
    }
}

/// Bucket index for a value: 0 for 0, else `64 - leading_zeros(v)`.
pub fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

impl Histogram {
    fn observe(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(v);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<(usize, u64)> =
            self.buckets.iter().copied().enumerate().filter(|(_, n)| *n > 0).collect();
        HistogramSnapshot { count: self.count, sum: self.sum, buckets }
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
pub struct Registry(Mutex<Metrics>);

#[derive(Debug, Default)]
struct Metrics {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    /// Wall-clock phase timings `(name, duration)`, in completion order.
    /// Non-deterministic by nature; excluded from snapshots and digests.
    timings: Vec<(String, Duration)>,
}

impl Metrics {
    fn add(&mut self, name: &str, delta: u64) {
        match self.counters.get_mut(name) {
            Some(v) => *v = v.wrapping_add(delta),
            None => {
                self.counters.insert(name.to_string(), delta);
            }
        }
    }

    fn observe(&mut self, name: &str, v: u64) {
        match self.histograms.get_mut(name) {
            Some(h) => h.observe(v),
            None => self.histograms.entry(name.to_string()).or_default().observe(v),
        }
    }
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The maps. A poisoned lock is recovered: an unwinding visit scope
    /// merges from its guard's drop, where a second panic would abort.
    fn lock(&self) -> MutexGuard<'_, Metrics> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub fn add(&self, name: &str, delta: u64) {
        self.lock().add(name, delta);
    }

    pub fn observe(&self, name: &str, v: u64) {
        self.lock().observe(name, v);
    }

    /// Apply one visit scope's delta under a single lock: how a closing
    /// scope and a resumed bundle entry both reach the registry.
    pub fn merge(&self, delta: &ScopeMetrics) {
        let mut m = self.lock();
        for (name, v) in &delta.counters {
            m.add(name, *v);
        }
        for (name, v) in &delta.observations {
            m.observe(name, *v);
        }
    }

    /// Record a completed wall-clock phase timing.
    pub fn record_timing(&self, name: &str, d: Duration) {
        self.lock().timings.push((name.to_string(), d));
    }

    pub fn timings(&self) -> Vec<(String, Duration)> {
        self.lock().timings.clone()
    }

    /// Freeze the deterministic metrics into an ordered snapshot.
    pub fn snapshot(&self) -> Snapshot {
        let m = self.lock();
        Snapshot {
            counters: m
                .counters
                .iter()
                .filter(|(_, v)| **v > 0)
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            histograms: m.histograms.iter().map(|(k, h)| (k.clone(), h.snapshot())).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

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
                    for _ in 0..10_000 {
                        r.add("spam", 1);
                    }
                });
            }
        });
        assert_eq!(r.snapshot().counter("spam"), 80_000);
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
