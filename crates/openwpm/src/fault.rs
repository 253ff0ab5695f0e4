//! Deterministic, seeded fault injection for crawls.
//!
//! The paper's core finding is that measurement frameworks silently lose
//! data when the web misbehaves. To evaluate the crawl layer's resilience
//! we need the *web itself* to misbehave on demand: a [`FaultPlan`]
//! describes how often each failure mode strikes, and a [`FaultInjector`]
//! turns that plan into per-`(site, attempt)` decisions that are pure
//! functions of the plan's seed — the same plan replayed over the same
//! population always produces the same faults, so a crawl under fault
//! injection is exactly as reproducible as a clean one.
//!
//! Modelled failure modes (mirroring OpenWPM's BrowserManager failure
//! taxonomy plus the netsim layer's transport):
//!
//! * **browser crash** — the whole browser process dies before the visit;
//! * **visit hang** — the page never finishes; only the supervisor's
//!   watchdog timeout ends the visit;
//! * **navigation error** — DNS/TLS-style failure, the navigation itself
//!   errors out immediately;
//! * **tab crash** — the content process dies *mid-visit*: work happens
//!   and is then lost;
//! * **transient HTTP failure** — the front page answers 503 (see
//!   [`netsim::http::HttpResponse::service_unavailable`]).

/// One injected failure mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    BrowserCrash,
    Hang,
    NavigationError,
    TabCrash,
    TransientHttp,
}

impl FaultKind {
    pub fn as_str(&self) -> &'static str {
        match self {
            FaultKind::BrowserCrash => "browser_crash",
            FaultKind::Hang => "hang",
            FaultKind::NavigationError => "navigation_error",
            FaultKind::TabCrash => "tab_crash",
            FaultKind::TransientHttp => "transient_http",
        }
    }
}

/// Per-mille incidence of each failure mode, plus the seed that makes the
/// draws reproducible. The rates are *per visit attempt*: a retried visit
/// draws again, so with `crash_per_mille = 50` and three attempts the
/// probability a site ultimately fails by crashing is `0.05³`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    pub crash_per_mille: u32,
    pub hang_per_mille: u32,
    pub nav_error_per_mille: u32,
    pub tab_crash_per_mille: u32,
    pub http_flaky_per_mille: u32,
    /// Per-mille multiplier applied to all rates on sites the population
    /// marks as flaky (`SitePlan::flaky`); 1000 = no boost.
    pub flaky_site_boost_pm: u32,
    /// Fault-draw seed — independent of the population seed so the same
    /// web can be crawled under different weather.
    pub seed: u64,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan {
            crash_per_mille: 0,
            hang_per_mille: 0,
            nav_error_per_mille: 0,
            tab_crash_per_mille: 0,
            http_flaky_per_mille: 0,
            flaky_site_boost_pm: 4000,
            seed: 0,
        }
    }
}

impl FaultPlan {
    /// No faults at all (the default).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// The adversarial weather of the robustness evaluation: 5% browser
    /// crashes, 1% hangs, 1% navigation errors, 0.5% tab crashes, 0.5%
    /// transient HTTP failures per attempt.
    pub fn adversarial(seed: u64) -> FaultPlan {
        FaultPlan {
            crash_per_mille: 50,
            hang_per_mille: 10,
            nav_error_per_mille: 10,
            tab_crash_per_mille: 5,
            http_flaky_per_mille: 5,
            seed,
            ..FaultPlan::default()
        }
    }

    /// Total injected fault probability per attempt, in per mille
    /// (saturating: rates near `u32::MAX` must not wrap to an inert plan).
    pub fn total_per_mille(&self) -> u32 {
        self.crash_per_mille
            .saturating_add(self.hang_per_mille)
            .saturating_add(self.nav_error_per_mille)
            .saturating_add(self.tab_crash_per_mille)
            .saturating_add(self.http_flaky_per_mille)
    }

    /// A plan with every rate at zero injects nothing; the supervisor can
    /// skip the draw entirely.
    pub fn is_inert(&self) -> bool {
        self.total_per_mille() == 0
    }
}

/// SplitMix64 — the same workhorse hash the population generator uses.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Draws faults from a [`FaultPlan`]. Stateless: every decision is a pure
/// function of `(plan seed, fault key, attempt)`, so draws are identical
/// regardless of worker count, scheduling or wall-clock time.
#[derive(Clone, Copy, Debug)]
pub struct FaultInjector {
    pub plan: FaultPlan,
}

impl FaultInjector {
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector { plan }
    }

    /// Decide the fault (if any) striking attempt `attempt` (1-based) of
    /// the item identified by `fault_key` (e.g. the site's rank). `flaky`
    /// applies the plan's flaky-site boost.
    pub fn draw(&self, fault_key: u64, attempt: u32, flaky: bool) -> Option<FaultKind> {
        if self.plan.is_inert() {
            return None;
        }
        let h = splitmix(
            self.plan
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ fault_key.wrapping_mul(0x2545_F491_4F6C_DD1D)
                ^ (attempt as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93),
        );
        // Draw against a million-sided die so a per-mille boost keeps
        // resolution.
        let d = h % 1_000_000;
        let boost = if flaky { self.plan.flaky_site_boost_pm as u64 } else { 1000 };
        let scale = |pm: u32| -> u64 { (pm as u64 * boost).min(1_000_000) };
        let mut threshold = 0u64;
        for (pm, kind) in [
            (self.plan.crash_per_mille, FaultKind::BrowserCrash),
            (self.plan.hang_per_mille, FaultKind::Hang),
            (self.plan.nav_error_per_mille, FaultKind::NavigationError),
            (self.plan.tab_crash_per_mille, FaultKind::TabCrash),
            (self.plan.http_flaky_per_mille, FaultKind::TransientHttp),
        ] {
            threshold = (threshold + scale(pm)).min(1_000_000);
            if d < threshold {
                return Some(kind);
            }
        }
        None
    }
}

// --- process-crash injection (chaos kill-points) ---------------------------
//
// Fault injection above models the *web* misbehaving; the chaos harness
// models the *crawler process* dying. A [`CrashPlan`] names one seeded
// kill-point; a [`CrashInjector`] realises it in-process by panicking with
// a sentinel payload that [`catch_crash`] recognises at the top of the
// crawl — the moral equivalent of SIGKILL, minus the process spawn. The
// `sigkill_resume` test in the `bench` crate SIGKILLs a real crawler
// process; both paths must leave disk states the resume logic recovers.

/// Where the process dies, counted in *record flushes* (the unit of
/// durability in streaming mode), so a plan is meaningful at any worker
/// count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KillPoint {
    /// Die immediately after the `K`-th record's bundle manifest entry is
    /// fully on disk — the clean-boundary crash.
    AfterVisit(u32),
    /// Die during the `K`-th flush, after writing only `keep` bytes of
    /// the bundle manifest entry (at most all of it but its newline): the
    /// torn-bundle-append crash.
    MidBundleAppend(u32, usize),
}

impl KillPoint {
    /// The flush ordinal (1-based) this kill-point fires on.
    pub fn flush_ordinal(&self) -> u32 {
        match self {
            KillPoint::AfterVisit(k) | KillPoint::MidBundleAppend(k, _) => *k,
        }
    }

    pub fn class_name(&self) -> &'static str {
        match self {
            KillPoint::AfterVisit(_) => "post_visit",
            KillPoint::MidBundleAppend(_, _) => "mid_bundle_append",
        }
    }
}

/// One planned process death.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashPlan {
    pub kill: KillPoint,
}

impl CrashPlan {
    pub fn new(kill: KillPoint) -> CrashPlan {
        CrashPlan { kill }
    }

    /// Derive a kill-point from a seed: class, flush ordinal in
    /// `[1, max_flush]`, and (for the torn class) a partial-write length
    /// in `[0, 40)` bytes — from "nothing written" to "rank, domain and
    /// more written".
    pub fn seeded(seed: u64, max_flush: u32) -> CrashPlan {
        let h = splitmix(seed ^ 0xC4A5_11ED_DEAD_BEEF);
        let k = (splitmix(h) % max_flush.max(1) as u64) as u32 + 1;
        let keep = (splitmix(h ^ 1) % 40) as usize;
        let kill = match h % 2 {
            0 => KillPoint::AfterVisit(k),
            _ => KillPoint::MidBundleAppend(k, keep),
        };
        CrashPlan { kill }
    }
}

/// Marker carried by injected-crash panics so [`catch_crash`] can tell a
/// planned death from a genuine bug. The supervisor's worker pool wraps
/// panic payloads in formatted messages, so detection is by substring.
pub const CRASH_SENTINEL: &str = "__gullible_injected_crash__";

/// Does a panic payload come from a [`CrashInjector`]?
pub fn is_crash_panic(payload: &(dyn std::any::Any + Send)) -> bool {
    if let Some(s) = payload.downcast_ref::<&str>() {
        return s.contains(CRASH_SENTINEL);
    }
    if let Some(s) = payload.downcast_ref::<String>() {
        return s.contains(CRASH_SENTINEL);
    }
    false
}

/// Run `f`, absorbing an injected crash: `None` if an injected-crash panic
/// unwound out of `f`, `Some(result)` otherwise. Any other panic is
/// re-raised — the harness must never hide real bugs.
pub fn catch_crash<T>(f: impl FnOnce() -> T) -> Option<T> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(v) => Some(v),
        Err(payload) => {
            if is_crash_panic(payload.as_ref()) {
                None
            } else {
                std::panic::resume_unwind(payload)
            }
        }
    }
}

/// Runtime state for one [`CrashPlan`]: counts record flushes and says,
/// per flush, whether (and how) to die. Once tripped, *every* subsequent
/// guarded operation dies too, so a crawl stops promptly on all workers.
#[derive(Debug)]
pub struct CrashInjector {
    pub plan: CrashPlan,
    flushes: std::sync::atomic::AtomicU32,
    tripped: std::sync::atomic::AtomicBool,
}

impl CrashInjector {
    pub fn new(plan: CrashPlan) -> CrashInjector {
        CrashInjector {
            plan,
            flushes: std::sync::atomic::AtomicU32::new(0),
            tripped: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Called at the start of a record flush. Returns the kill-point if
    /// *this* flush is the planned one; panics immediately (dying fast)
    /// if the injector already tripped on another thread.
    pub fn begin_flush(&self) -> Option<KillPoint> {
        use std::sync::atomic::Ordering;
        if self.tripped.load(Ordering::Relaxed) {
            self.die();
        }
        let n = self.flushes.fetch_add(1, Ordering::Relaxed) + 1;
        (n == self.plan.kill.flush_ordinal()).then_some(self.plan.kill)
    }

    /// True once the planned death has been delivered.
    pub fn tripped(&self) -> bool {
        self.tripped.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Deliver the planned death: mark tripped and unwind with the
    /// sentinel. The caller must have produced the planned on-disk state
    /// (full or partial writes) *before* calling.
    pub fn die(&self) -> ! {
        self.tripped.store(true, std::sync::atomic::Ordering::Relaxed);
        // Dump the flight recorder before unwinding: the forensic record
        // names the in-flight phase so every injected crash is explainable.
        obs::prof::dump_forensic(
            "chaos_kill",
            &[("kill", self.plan.kill.class_name().to_string())],
        );
        panic!("{CRASH_SENTINEL} ({})", self.plan.kill.class_name());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_plan_never_faults() {
        let inj = FaultInjector::new(FaultPlan::none());
        for key in 0..1000 {
            assert_eq!(inj.draw(key, 1, true), None);
        }
        // Rates whose sum overflows `u32` are not inert.
        let plan = FaultPlan { crash_per_mille: u32::MAX, hang_per_mille: 1, ..FaultPlan::none() };
        assert_eq!(plan.total_per_mille(), u32::MAX);
        assert_eq!(FaultInjector::new(plan).draw(0, 1, false), Some(FaultKind::BrowserCrash));
    }

    #[test]
    fn draws_are_deterministic() {
        let a = FaultInjector::new(FaultPlan::adversarial(7));
        let b = FaultInjector::new(FaultPlan::adversarial(7));
        for key in 0..2000 {
            for attempt in 1..4 {
                assert_eq!(a.draw(key, attempt, false), b.draw(key, attempt, false));
            }
        }
    }

    #[test]
    fn rates_are_approximately_honoured() {
        let inj = FaultInjector::new(FaultPlan::adversarial(42));
        let mut crashes = 0u32;
        let mut total_faults = 0u32;
        let n = 100_000;
        for key in 0..n {
            match inj.draw(key as u64, 1, false) {
                Some(FaultKind::BrowserCrash) => {
                    crashes += 1;
                    total_faults += 1;
                }
                Some(_) => total_faults += 1,
                None => {}
            }
        }
        // 5% crash rate ± 10% relative tolerance.
        assert!((4_500..=5_500).contains(&crashes), "crashes = {crashes}");
        // Total = 8% of attempts.
        assert!((7_200..=8_800).contains(&total_faults), "total = {total_faults}");
    }

    #[test]
    fn different_attempts_draw_independently() {
        let inj = FaultInjector::new(FaultPlan::adversarial(1));
        // Some site that faults on attempt 1 must succeed on a later
        // attempt — otherwise retry would be pointless.
        let mut recovered = 0;
        for key in 0..1000 {
            if inj.draw(key, 1, false).is_some() && inj.draw(key, 2, false).is_none() {
                recovered += 1;
            }
        }
        assert!(recovered > 0, "retries never clear faults");
    }

    #[test]
    fn flaky_boost_raises_fault_rate() {
        let inj = FaultInjector::new(FaultPlan::adversarial(3));
        let count = |flaky: bool| {
            (0..20_000).filter(|k| inj.draw(*k, 1, flaky).is_some()).count()
        };
        let plain = count(false);
        let boosted = count(true);
        assert!(
            boosted as f64 > plain as f64 * 2.0,
            "boost missing: {plain} vs {boosted}"
        );
    }

    #[test]
    fn seed_changes_the_weather() {
        let a = FaultInjector::new(FaultPlan::adversarial(1));
        let b = FaultInjector::new(FaultPlan::adversarial(2));
        let differing =
            (0..5_000).filter(|k| a.draw(*k, 1, false) != b.draw(*k, 1, false)).count();
        assert!(differing > 0);
    }

    #[test]
    fn seeded_crash_plans_cover_all_classes_and_are_deterministic() {
        let mut classes = std::collections::HashSet::new();
        for seed in 0..60u64 {
            let p = CrashPlan::seeded(seed, 100);
            assert_eq!(p, CrashPlan::seeded(seed, 100));
            let k = p.kill.flush_ordinal();
            assert!((1..=100).contains(&k), "{p:?}");
            classes.insert(p.kill.class_name());
        }
        assert_eq!(classes.len(), 2, "60 seeds must hit every kill class: {classes:?}");
    }

    #[test]
    fn injector_fires_on_the_planned_flush_and_stays_tripped() {
        let inj = CrashInjector::new(CrashPlan::new(KillPoint::AfterVisit(3)));
        assert_eq!(inj.begin_flush(), None);
        assert_eq!(inj.begin_flush(), None);
        assert_eq!(inj.begin_flush(), Some(KillPoint::AfterVisit(3)));
        assert!(!inj.tripped(), "tripped only once die() delivers");
        assert!(catch_crash(|| inj.die()).is_none());
        assert!(inj.tripped());
        // Every guarded op after the death dies too.
        assert!(catch_crash(|| inj.begin_flush()).is_none());
    }

    #[test]
    fn catch_crash_passes_values_and_rethrows_real_panics() {
        assert_eq!(catch_crash(|| 42), Some(42));
        // A crash sentinel wrapped in a formatted worker message (the
        // supervisor re-wraps payloads) is still recognised.
        assert!(catch_crash(|| panic!("worker panicked on item 7: {CRASH_SENTINEL} (x)"))
            .is_none());
        let real = std::panic::catch_unwind(|| catch_crash(|| panic!("genuine bug")));
        assert!(real.is_err(), "real panics must propagate");
    }
}
