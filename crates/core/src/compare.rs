//! The WPM vs WPM_hide field comparison (paper Sec. 6.3, Tables 8–10,
//! Fig. 6).
//!
//! Both clients visit every site of the comparison set in three repeated
//! runs (the paper's r1/r2/r3), synchronised per site. Sites react to the
//! verdicts their own detector scripts produce; sites that re-identify a
//! client escalate throttling in later runs.
//!
//! Each of the six legs (run × client) is one fault-free
//! [`run_supervised`] crawl over the same site plans, built once per
//! comparison. A visit that fails anyway (a panic, a bad URL) becomes a
//! typed failure instead of aborting the comparison; its site is dropped
//! from all six legs, so the per-site pairs that the Wilcoxon tests and
//! the tracking-cookie classifier read stay aligned, and
//! [`CompareReport::coverage_line`] names it. The report reproduces:
//!
//! * Table 8 — HTTP requests by resource type, with per-run Diff columns;
//! * Table 9 — requests matching EasyList / EasyPrivacy;
//! * Table 10 — first-party / third-party / tracking cookies (the tracking
//!   classifier implements the Englehardt/Chen criteria incl.
//!   Ratcliff-Obershelp value dissimilarity across runs);
//! * Fig. 6 — per-API call coverage of WPM relative to WPM_hide.

use std::cell::Cell;
use std::collections::{BTreeMap, HashSet};

use netsim::{Cookie, ResourceType};
use openwpm::{
    run_supervised, Browser, BrowserConfig, FailureReason, FaultPlan, ItemMeta, VisitOutcome,
};
use stats::{ratcliff_obershelp, wilcoxon_signed_rank, WilcoxonResult};
use webgen::{behaviour, verdict_from_traffic, visit_spec, PageKind, Population, SitePlan};

/// Comparison configuration.
#[derive(Clone, Copy, Debug)]
pub struct CompareConfig {
    pub n_sites: u32,
    pub seed: u64,
    pub runs: u32,
    pub workers: usize,
}

impl CompareConfig {
    pub fn new(n_sites: u32, seed: u64) -> CompareConfig {
        CompareConfig { n_sites, seed, runs: 3, workers: 4 }
    }
}

/// The two clients of the comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Client {
    Wpm,
    WpmHide,
}

impl Client {
    fn tag(&self, seed: u64) -> u64 {
        match self {
            Client::Wpm => seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x1111,
            Client::WpmHide => seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x2222,
        }
    }

    fn config(&self, seed: u64) -> BrowserConfig {
        match self {
            Client::Wpm => BrowserConfig::vanilla(seed),
            Client::WpmHide => BrowserConfig::stealth(seed),
        }
    }
}

/// Summary of one client's visit to one site in one run.
#[derive(Clone, Debug, Default)]
pub struct VisitSummary {
    pub rank: u32,
    pub requests_by_type: BTreeMap<ResourceType, u32>,
    pub easylist_hits: u32,
    pub easyprivacy_hits: u32,
    pub cookies: Vec<Cookie>,
    pub js_symbol_counts: BTreeMap<String, u32>,
    /// Did the site flag this client as a bot this run?
    pub flagged: bool,
    /// Did the vanilla injection get CSP-blocked?
    pub instrument_blocked: bool,
}

/// One client's crawl of one run.
#[derive(Clone, Debug, Default)]
pub struct RunData {
    pub sites: Vec<VisitSummary>,
}

impl RunData {
    pub fn total_requests(&self) -> u64 {
        self.sites
            .iter()
            .map(|s| s.requests_by_type.values().map(|&v| v as u64).sum::<u64>())
            .sum()
    }

    pub fn requests_of(&self, rt: ResourceType) -> u64 {
        self.sites.iter().map(|s| *s.requests_by_type.get(&rt).unwrap_or(&0) as u64).sum()
    }

    pub fn easylist_total(&self) -> u64 {
        self.sites.iter().map(|s| s.easylist_hits as u64).sum()
    }

    pub fn easyprivacy_total(&self) -> u64 {
        self.sites.iter().map(|s| s.easyprivacy_hits as u64).sum()
    }

    pub fn cookies_of(&self, party: netsim::CookieParty) -> u64 {
        self.sites.iter().map(|s| s.cookies.iter().filter(|c| c.party() == party).count() as u64).sum()
    }

    pub fn blocked_sites(&self) -> u32 {
        self.sites.iter().filter(|s| s.instrument_blocked).count() as u32
    }
}

/// Full comparison output: `runs[r] = (wpm, hide)`.
#[derive(Clone, Debug, Default)]
pub struct CompareReport {
    pub compare_set: Vec<u32>,
    pub runs: Vec<(RunData, RunData)>,
    /// Sites left out of every run: `(rank, reason)` in rank order, with
    /// the reason of the first leg whose visit to the site failed.
    pub dropped: Vec<(u32, FailureReason)>,
}

/// Select the comparison set: detector sites with first-party bot
/// management that re-identify clients (the population's cloaking sites),
/// truncated to the paper's 1,487 scaled to the population size.
pub fn compare_set(pop: &Population) -> Vec<u32> {
    compare_plans(pop).iter().map(|plan| plan.rank).collect()
}

/// The plans of the [`compare_set`] sites, in rank order.
fn compare_plans(pop: &Population) -> Vec<SitePlan> {
    let limit = ((1487u64 * pop.n_sites as u64) / 100_000).max(8) as usize;
    (0..pop.n_sites)
        .map(|rank| pop.plan(rank))
        .filter(|plan| plan.first_party.is_some() && plan.cloak.reidentifies)
        .take(limit)
        .collect()
}

/// Run the comparison under the calling thread's current
/// [`CrawlCtx`](crate::CrawlCtx).
pub fn run_compare(cfg: CompareConfig) -> CompareReport {
    let _phase = obs::phase("compare.runs");
    let pop = Population::new(cfg.n_sites, cfg.seed);
    run_legs(cfg, &compare_plans(&pop))
}

/// Visit `plans` in `cfg.runs` runs × both clients, each of these legs
/// one supervised crawl. A site whose visit fails in any leg is dropped
/// from all of them, so the per-site pairs stay aligned.
fn run_legs(cfg: CompareConfig, plans: &[SitePlan]) -> CompareReport {
    obs::emit(
        obs::Event::new(0, "compare_start")
            .attr("runs", cfg.runs as u64)
            .attr("compare_set", plans.len() as u64),
    );
    // Per client, the ranks that flagged it in an earlier run: those sites
    // re-identify it.
    let mut flagged: [HashSet<u32>; 2] = Default::default();
    let mut dropped: BTreeMap<u32, FailureReason> = BTreeMap::new();
    let mut legs = Vec::new();
    for run in 1..=cfg.runs {
        legs.push([Client::Wpm, Client::WpmHide].map(|client| {
            let flagged = &mut flagged[client as usize];
            let outcomes = run_leg(cfg, plans, run, client, flagged);
            obs::add("compare.client_runs", 1);
            for (plan, outcome) in plans.iter().zip(&outcomes) {
                match outcome {
                    VisitOutcome::Completed(s) if s.flagged => {
                        obs::add("compare.flagged", 1);
                        flagged.insert(plan.rank);
                    }
                    VisitOutcome::Failed { reason, .. } => {
                        dropped.entry(plan.rank).or_insert(*reason);
                    }
                    VisitOutcome::Completed(_) | VisitOutcome::Interrupted => {}
                }
            }
            outcomes
        }));
    }
    let kept = |outcomes: Vec<VisitOutcome<VisitSummary>>| RunData {
        sites: outcomes
            .into_iter()
            .filter_map(|o| match o {
                VisitOutcome::Completed(s) if !dropped.contains_key(&s.rank) => Some(s),
                _ => None,
            })
            .collect(),
    };
    CompareReport {
        compare_set: plans.iter().map(|plan| plan.rank).collect(),
        runs: legs.into_iter().map(|[wpm, hide]| (kept(wpm), kept(hide))).collect(),
        dropped: dropped.into_iter().collect(),
    }
}

/// One client's supervised crawl of `plans` in run `run`, fault-free.
fn run_leg(
    cfg: CompareConfig,
    plans: &[SitePlan],
    run: u32,
    client: Client,
    flagged_before: &HashSet<u32>,
) -> Vec<VisitOutcome<VisitSummary>> {
    let ctx = crate::CrawlCtx::current();
    let tag = client.tag(cfg.seed);
    run_supervised(
        plans.iter().collect(),
        cfg.workers,
        FaultPlan::none(),
        |plan: &&SitePlan| ItemMeta {
            // Not `front_url`: a label must not panic outside the visit.
            label: format!("https://{}/", plan.domain),
            fault_key: plan.rank as u64,
            flaky: plan.flaky,
        },
        // Every worker gets the same seed and each visit is keyed by its
        // rank, so a site's event ids do not depend on which worker took
        // it or what that browser visited before.
        |_| (ctx.enter(), Browser::new(client.config(cfg.seed ^ (run as u64) << 32))),
        |(_, browser), _, plan| {
            browser.set_visit_key(plan.rank as u64);
            visit_one(browser, plan, run, tag, flagged_before.contains(&plan.rank))
        },
        Vec::new(),
        |_, outcome, _| outcome,
    )
    .outcomes
}

/// Visit one site once with one client.
pub fn visit_one(
    browser: &mut Browser,
    plan: &SitePlan,
    run: u32,
    client_tag: u64,
    flagged_before: bool,
) -> Result<VisitSummary, FailureReason> {
    let mut spec = visit_spec(plan, PageKind::Front);
    spec.dwell_override_s = Some(61);
    let flagged = Cell::new(false);
    let stats = browser.visit(&spec, |traffic| {
        let f = verdict_from_traffic(traffic);
        flagged.set(f);
        behaviour::site_response(plan, run, client_tag, f, flagged_before)
    })?;
    let store = browser.take_store();
    let easylist = webgen::blocklists::easylist();
    let easyprivacy = webgen::blocklists::easyprivacy();
    let mut summary = VisitSummary {
        rank: plan.rank,
        flagged: flagged.get(),
        instrument_blocked: !stats.instrumented,
        cookies: store.cookies.clone(),
        ..Default::default()
    };
    for req in &store.http_requests {
        *summary.requests_by_type.entry(req.resource_type).or_insert(0) += 1;
        if easylist.matches(req) {
            summary.easylist_hits += 1;
        }
        if easyprivacy.matches(req) {
            summary.easyprivacy_hits += 1;
        }
    }
    for rec in &store.js_calls {
        if rec.symbol.starts_with("honey:") {
            continue;
        }
        *summary.js_symbol_counts.entry(rec.symbol.clone()).or_insert(0) += 1;
    }
    Ok(summary)
}

// ----------------------------------------------------- tracking classifier

/// The Englehardt et al. / Chen et al. tracking-cookie criteria (Sec. 6.3.3):
/// (1) not a session cookie, (2) value length ≥ 8 (sans quotes), (3) always
/// set, (4) long-living (≥ 3 months), (5) values dissimilar across runs
/// (Ratcliff-Obershelp). With a stateless profile per visit, (3) is
/// satisfied whenever the site served the cookie at all during a run, so
/// the per-run count reduces to criteria (1)(2)(4) plus (5) evaluated over
/// whichever cross-run value pairs exist — exactly why the paper's per-run
/// tracking counts differ between runs.
pub const RATCLIFF_THRESHOLD: f64 = 0.66;

/// Count the tracking cookies in `jars_per_run[run_idx]`.
pub fn tracking_cookies_in_run(jars_per_run: &[&[Cookie]], run_idx: usize) -> u64 {
    let mut count = 0u64;
    for c in jars_per_run[run_idx] {
        // (1), (2), (4)
        if c.is_session() || c.effective_len() < 8 || !c.is_long_living() {
            continue;
        }
        // (5): every observable cross-run pair must be dissimilar — a
        // constant value across runs is a shared token, not a per-client id.
        let mut dissimilar = true;
        for (other_idx, jar) in jars_per_run.iter().enumerate() {
            if other_idx == run_idx {
                continue;
            }
            if let Some(other) = jar.iter().find(|x| x.domain == c.domain && x.name == c.name) {
                if ratcliff_obershelp(&c.value, &other.value) >= RATCLIFF_THRESHOLD {
                    dissimilar = false;
                    break;
                }
            }
        }
        if dissimilar {
            count += 1;
        }
    }
    count
}

impl CompareReport {
    /// One-line coverage statement: the sites kept in every leg, and each
    /// dropped rank with its reason.
    pub fn coverage_line(&self) -> String {
        let total = self.compare_set.len();
        let kept = total - self.dropped.len();
        let share = if total == 0 { 100.0 } else { 100.0 * kept as f64 / total as f64 };
        let mut line = format!(
            "coverage: {kept}/{total} comparison sites in all {} legs ({share:.1}%)",
            2 * self.runs.len()
        );
        if !self.dropped.is_empty() {
            let detail: Vec<String> = self
                .dropped
                .iter()
                .map(|(rank, reason)| format!("rank {rank} {}", reason.as_str()))
                .collect();
            line.push_str(&format!("; dropped {}", detail.join(", ")));
        }
        line
    }

    fn client_runs(&self, client: Client) -> Vec<&RunData> {
        self.runs
            .iter()
            .map(|(w, h)| match client {
                Client::Wpm => w,
                Client::WpmHide => h,
            })
            .collect()
    }

    /// Count tracking cookies served to `client` in run `run_idx`
    /// (0-based), classified with the cross-run criteria.
    pub fn tracking_cookies(&self, client: Client, run_idx: usize) -> u64 {
        let runs = self.client_runs(client);
        let mut total = 0u64;
        let nsites = runs[0].sites.len();
        for site_idx in 0..nsites {
            let jars: Vec<&[Cookie]> =
                runs.iter().map(|r| r.sites[site_idx].cookies.as_slice()).collect();
            total += tracking_cookies_in_run(&jars, run_idx);
        }
        total
    }

    /// Per-site paired samples for a metric, for significance testing.
    pub fn paired_samples(
        &self,
        run_idx: usize,
        metric: impl Fn(&VisitSummary) -> f64,
    ) -> (Vec<f64>, Vec<f64>) {
        let (wpm, hide) = &self.runs[run_idx];
        let a = wpm.sites.iter().map(&metric).collect();
        let b = hide.sites.iter().map(&metric).collect();
        (a, b)
    }

    /// Wilcoxon signed-rank over per-site ad/tracker request counts.
    pub fn wilcoxon_trackers(&self, run_idx: usize) -> Option<WilcoxonResult> {
        let (a, b) = self.paired_samples(run_idx, |s| {
            (s.easylist_hits + s.easyprivacy_hits) as f64
        });
        wilcoxon_signed_rank(&a, &b)
    }

    /// Wilcoxon signed-rank over per-site cookie counts.
    pub fn wilcoxon_cookies(&self, run_idx: usize) -> Option<WilcoxonResult> {
        let (a, b) = self.paired_samples(run_idx, |s| s.cookies.len() as f64);
        wilcoxon_signed_rank(&a, &b)
    }

    /// Fig. 6 data: per-symbol `(wpm_calls, hide_calls)` for run `run_idx`.
    pub fn coverage(&self, run_idx: usize) -> BTreeMap<String, (u64, u64)> {
        let (wpm, hide) = &self.runs[run_idx];
        let mut out: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for s in &wpm.sites {
            for (sym, n) in &s.js_symbol_counts {
                out.entry(sym.clone()).or_default().0 += *n as u64;
            }
        }
        for s in &hide.sites {
            for (sym, n) in &s.js_symbol_counts {
                out.entry(sym.clone()).or_default().1 += *n as u64;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::CookieParty;
    use openwpm::supervisor::MAX_ATTEMPTS;

    fn small_compare() -> CompareReport {
        run_compare(CompareConfig { n_sites: 4_000, seed: 21, runs: 3, workers: 4 })
    }

    #[test]
    fn hide_receives_more_content_and_cookies() {
        let report = small_compare();
        assert!(report.compare_set.len() >= 8, "set: {}", report.compare_set.len());
        for (i, (wpm, hide)) in report.runs.iter().enumerate() {
            assert!(
                hide.total_requests() > wpm.total_requests(),
                "run {}: hide {} vs wpm {}",
                i + 1,
                hide.total_requests(),
                wpm.total_requests()
            );
            assert!(
                hide.cookies_of(CookieParty::Third) >= wpm.cookies_of(CookieParty::Third),
                "run {}: third-party cookies",
                i + 1
            );
        }
    }

    #[test]
    fn wpm_is_flagged_hide_is_not() {
        let report = small_compare();
        let (wpm, hide) = &report.runs[0];
        let wpm_flagged = wpm.sites.iter().filter(|s| s.flagged).count();
        let hide_flagged = hide.sites.iter().filter(|s| s.flagged).count();
        assert!(
            wpm_flagged > wpm.sites.len() * 9 / 10,
            "wpm flagged on {wpm_flagged}/{} sites",
            wpm.sites.len()
        );
        assert_eq!(hide_flagged, 0, "hide must never be flagged");
    }

    #[test]
    fn csp_reports_collapse_for_hide() {
        let report = small_compare();
        let (wpm, hide) = &report.runs[0];
        let wpm_csp = wpm.requests_of(ResourceType::CspReport);
        let hide_csp = hide.requests_of(ResourceType::CspReport);
        assert!(wpm_csp > 0, "vanilla must trigger CSP reports on strict sites");
        assert_eq!(hide_csp, 0, "hide must trigger none (Sec. 6.3.1)");
        assert!(wpm.blocked_sites() > 0);
        assert_eq!(hide.blocked_sites(), 0);
    }

    #[test]
    fn tracking_cookies_strongly_reduced_for_wpm() {
        let report = small_compare();
        let wpm_t = report.tracking_cookies(Client::Wpm, 0);
        let hide_t = report.tracking_cookies(Client::WpmHide, 0);
        assert!(
            hide_t as f64 >= wpm_t as f64 * 1.2,
            "tracking cookies: wpm {wpm_t} vs hide {hide_t} (paper: +41.7%)"
        );
    }

    #[test]
    fn effect_amplifies_across_runs() {
        let report = small_compare();
        let diff = |i: usize| {
            let (wpm, hide) = &report.runs[i];
            (hide.total_requests() as f64 - wpm.total_requests() as f64)
                / wpm.total_requests() as f64
        };
        assert!(
            diff(2) > diff(0),
            "re-identification must amplify: r1 {:.3} vs r3 {:.3}",
            diff(0),
            diff(2)
        );
    }

    #[test]
    fn differences_are_statistically_significant() {
        let report = small_compare();
        let w = report.wilcoxon_trackers(2).expect("enough non-zero pairs");
        assert!(w.significant_at_95(), "tracker diff p = {}", w.p_value);
    }

    #[test]
    fn coverage_gaps_exist_for_wpm() {
        let report = small_compare();
        let cov = report.coverage(0);
        // The deep-probe (iframe) sites create calls WPM misses.
        let ua = cov.get("window.navigator.userAgent");
        if let Some((wpm, hide)) = ua {
            assert!(wpm <= hide, "userAgent coverage: {wpm} vs {hide}");
        }
        // appendChild through elements is unobserved by vanilla due to
        // prototype pollution (Fig. 2 → Fig. 6).
        if let Some((wpm, hide)) = cov.get("window.document.appendChild") {
            assert!(wpm < hide, "appendChild: wpm {wpm} vs hide {hide}");
        }
    }

    #[test]
    fn a_panicking_visit_drops_its_site_from_every_leg() {
        let cfg = CompareConfig { n_sites: 1_000, seed: 21, runs: 3, workers: 2 };
        let plans = compare_plans(&Population::new(cfg.n_sites, cfg.seed));
        let clean = run_legs(cfg, &plans);
        assert!(clean.dropped.is_empty());
        // An empty domain makes `SitePlan::front_url` panic inside
        // `visit_spec`.
        let mut bad = plans.clone();
        bad[2].domain.clear();
        let rank = bad[2].rank;
        let leg = run_leg(cfg, &bad, 1, Client::Wpm, &HashSet::new());
        assert!(
            matches!(
                leg[2],
                VisitOutcome::Failed { reason: FailureReason::Panic, attempts: MAX_ATTEMPTS }
            ),
            "{:?}",
            leg[2]
        );
        let report = run_legs(cfg, &bad);
        assert_eq!(report.dropped, vec![(rank, FailureReason::Panic)]);
        let coverage = report.coverage_line();
        assert!(coverage.contains(&format!("dropped rank {rank} panic")), "{coverage}");
        assert_eq!(report.runs.len(), 3);
        let legs = |r: &CompareReport| -> Vec<Vec<String>> {
            r.runs
                .iter()
                .flat_map(|(wpm, hide)| [wpm, hide])
                .map(|leg| leg.sites.iter().map(|s| format!("{s:?}")).collect())
                .collect()
        };
        let bad_site = format!("VisitSummary {{ rank: {rank},");
        for (with_bad, without) in legs(&report).into_iter().zip(legs(&clean)) {
            let kept: Vec<String> = without.into_iter().filter(|s| !s.starts_with(&bad_site)).collect();
            assert_eq!(with_bad.len(), plans.len() - 1, "the site is still in a leg");
            assert_eq!(with_bad, kept, "the other sites' summaries changed");
        }
    }

    #[test]
    fn tracking_classifier_criteria() {
        let mk = |value: &str, session: bool| Cookie {
            name: "uid0".into(),
            value: value.into(),
            domain: "tracker.example".into(),
            page_domain: "site.example".into(),
            expires_in_s: if session { None } else { Some(200 * 24 * 3600) },
        };
        // Dissimilar long-living values across 3 runs → tracking in each.
        let r1 = vec![mk("a1b2c3d4e5f60718", false)];
        let r2 = vec![mk("9f8e7d6c5b4a3920", false)];
        let r3 = vec![mk("0011223344556677", false)];
        let jars = [r1.as_slice(), r2.as_slice(), r3.as_slice()];
        assert_eq!(tracking_cookies_in_run(&jars, 0), 1);
        assert_eq!(tracking_cookies_in_run(&jars, 2), 1);
        // Identical values across runs → a shared constant, not tracking.
        let same = vec![mk("a1b2c3d4e5f60718", false)];
        let jars = [same.as_slice(), same.as_slice()];
        assert_eq!(tracking_cookies_in_run(&jars, 0), 0);
        // Session cookie → not tracking even with dissimilar values.
        let s1 = vec![mk("a1b2c3d4e5f60718", true)];
        let s2 = vec![mk("ffffeeeeddddcccc", true)];
        let jars = [s1.as_slice(), s2.as_slice()];
        assert_eq!(tracking_cookies_in_run(&jars, 0), 0);
        // Short value → not tracking.
        let short1 = vec![mk("ab12", false)];
        let short2 = vec![mk("cd34", false)];
        let jars = [short1.as_slice(), short2.as_slice()];
        assert_eq!(tracking_cookies_in_run(&jars, 0), 0);
        // Withheld in other runs → still a tracking cookie where served
        // (criterion 5 is vacuous without an observable pair).
        let empty: Vec<Cookie> = Vec::new();
        let jars = [r1.as_slice(), empty.as_slice()];
        assert_eq!(tracking_cookies_in_run(&jars, 0), 1);
        assert_eq!(tracking_cookies_in_run(&jars, 1), 0);
    }
}
