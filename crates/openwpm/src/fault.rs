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
//!
//! This models the *web* misbehaving. The *crawler* dying is not injected
//! at all: a killed crawl leaves only its bundle (a manifest prefix,
//! perhaps ending in a torn line, and a blob file), so the crash→resume
//! tests write those states to disk directly, and the `bench` crate's
//! `sigkill_resume` test kills a real crawler process.

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
}
