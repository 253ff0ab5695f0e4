//! The WPM vs WPM_hide field comparison (paper Sec. 6.3, Tables 8–10,
//! Fig. 6).
//!
//! Both clients visit every site of the comparison set in three repeated
//! runs (the paper's r1/r2/r3), synchronised per site. Sites react to the
//! verdicts their own detector scripts produce; sites that re-identify a
//! client escalate throttling in later runs. The report reproduces:
//!
//! * Table 8 — HTTP requests by resource type, with per-run Diff columns;
//! * Table 9 — requests matching EasyList / EasyPrivacy;
//! * Table 10 — first-party / third-party / tracking cookies (the tracking
//!   classifier implements the Englehardt/Chen criteria incl.
//!   Ratcliff-Obershelp value dissimilarity across runs);
//! * Fig. 6 — per-API call coverage of WPM relative to WPM_hide.

use std::cell::Cell;
use std::collections::{BTreeMap, HashMap, HashSet};

use netsim::{Cookie, ResourceType};
use openwpm::manager::run_parallel;
use openwpm::{Browser, BrowserConfig};
use stats::{ratcliff_obershelp, wilcoxon_signed_rank, WilcoxonResult};
use webgen::{behaviour, verdict_from_traffic, visit_spec, PageKind, Population};

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
}

/// Select the comparison set: detector sites with first-party bot
/// management that re-identify clients (the population's cloaking sites),
/// truncated to the paper's 1,487 scaled to the population size.
pub fn compare_set(pop: &Population) -> Vec<u32> {
    let limit = ((1487u64 * pop.n_sites as u64) / 100_000).max(8) as usize;
    let mut set = Vec::new();
    for rank in 0..pop.n_sites {
        let plan = pop.plan(rank);
        if plan.first_party.is_some() && plan.cloak.reidentifies {
            set.push(rank);
            if set.len() >= limit {
                break;
            }
        }
    }
    set
}

/// Run the comparison under the calling thread's current
/// [`CrawlCtx`](crate::CrawlCtx).
pub fn run_compare(cfg: CompareConfig) -> CompareReport {
    let ctx = crate::CrawlCtx::current();
    let _phase = obs::phase("compare.runs");
    let pop = Population::new(cfg.n_sites, cfg.seed);
    let set = compare_set(&pop);
    obs::emit(
        obs::Event::new(0, "compare_start")
            .attr("runs", cfg.runs as u64)
            .attr("compare_set", set.len() as u64),
    );
    let mut report = CompareReport { compare_set: set.clone(), runs: Vec::new() };
    // Per-client re-identification memory: site rank → flagged in any
    // earlier run.
    let mut memory: HashMap<(u32, u32), bool> = HashMap::new(); // (client_id, rank)
    for run in 1..=cfg.runs {
        let mut run_pair: Vec<RunData> = Vec::new();
        for (client_id, client) in [(0u32, Client::Wpm), (1u32, Client::WpmHide)] {
            let tag = client.tag(cfg.seed);
            let mem_snapshot: HashSet<u32> = set
                .iter()
                .copied()
                .filter(|r| memory.get(&(client_id, *r)).copied().unwrap_or(false))
                .collect();
            let seed = cfg.seed;
            let summaries = run_parallel(
                set.clone(),
                cfg.workers,
                |w| (ctx.enter(), Browser::new(client.config(seed ^ (run as u64) << 32 ^ w as u64))),
                move |(_, browser), _idx, rank| {
                    let plan = pop.plan(rank);
                    visit_one(browser, &plan, run, tag, mem_snapshot.contains(&rank))
                },
            );
            obs::add("compare.client_runs", 1);
            obs::add("compare.visits", summaries.len() as u64);
            for s in &summaries {
                if s.flagged {
                    obs::add("compare.flagged", 1);
                    memory.insert((client_id, s.rank), true);
                }
            }
            run_pair.push(RunData { sites: summaries });
        }
        let hide = run_pair.pop().unwrap();
        let wpm = run_pair.pop().unwrap();
        report.runs.push((wpm, hide));
    }
    report
}

/// Visit one site once with one client.
pub fn visit_one(
    browser: &mut Browser,
    plan: &webgen::SitePlan,
    run: u32,
    client_tag: u64,
    flagged_before: bool,
) -> VisitSummary {
    let mut spec = visit_spec(plan, PageKind::Front);
    spec.dwell_override_s = Some(61);
    let flagged = Cell::new(false);
    let stats = browser
        .visit(&spec, |traffic| {
            let f = verdict_from_traffic(traffic);
            flagged.set(f);
            behaviour::site_response(plan, run, client_tag, f, flagged_before)
        })
        .expect("generated plan URLs always parse");
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
    summary
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
