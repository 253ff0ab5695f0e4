//! The Tranco-100K scan for client-side bot detection (paper Sec. 4).
//!
//! For every site: visit the front page and up to three subpages with the
//! scanning client (vanilla OpenWPM + honey properties + OpenWPM-property
//! watches), save every delivered script, record every JavaScript call,
//! then classify each script with the combined static + dynamic pipeline.
//! The aggregation reproduces Tables 5–7, 11–12 and the data behind
//! Figures 3–5.

use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use detect::DynamicClass;
use netsim::url::etld1_of;
use netsim::Url;
use openwpm::{
    run_supervised, Browser, BrowserConfig, CrawlHistoryRecord, CrawlSummary, FailureReason,
    FaultPlan, ItemMeta, SiteResponse, VisitOutcome, VisitSpec,
};
use webgen::{visit_spec, Category, PageKind, Population, SitePlan};

use crate::archive::{
    take_capture, ArchiveStats, ReplayBundle, ReplayStats, StreamRecorder, Verifier,
};

/// Scan configuration: only what an experiment varies. Every scan is the
/// paper's deep scan (the front page plus up to three subpages, no
/// interaction) and retries and times out visits with the supervisor's
/// constant policy ([`openwpm::supervisor::MAX_ATTEMPTS`] and friends).
#[derive(Clone, Copy, Debug)]
pub struct ScanConfig {
    pub n_sites: u32,
    pub seed: u64,
    pub workers: usize,
    /// Injected crawl weather (crashes, hangs, …). Inert by default, so a
    /// plain scan behaves exactly as an unsupervised one.
    pub faults: FaultPlan,
    /// Chronically flaky sites per 100K in the population (see
    /// `webgen::Population::flaky_per_100k`); the fault injector boosts its
    /// rates on these.
    pub flaky_sites_per_100k: u32,
}

impl ScanConfig {
    pub fn new(n_sites: u32, seed: u64) -> ScanConfig {
        ScanConfig {
            n_sites,
            seed,
            workers: 4,
            faults: FaultPlan::none(),
            flaky_sites_per_100k: 0,
        }
    }

    pub(crate) fn population(&self) -> Population {
        Population {
            flaky_per_100k: self.flaky_sites_per_100k,
            ..Population::new(self.n_sites, self.seed)
        }
    }
}

/// Per-page detection flags.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PageFlags {
    /// Naive static pattern matched some script (includes false positives).
    pub static_identified: bool,
    /// Precise static patterns matched (true static finding).
    pub static_true: bool,
    /// Dynamic analysis saw fingerprint-surface access (includes
    /// inconclusive iterators).
    pub dynamic_identified: bool,
    /// Dynamic classification says Detector.
    pub dynamic_true: bool,
}

impl PageFlags {
    pub fn union_true(&self) -> bool {
        self.static_true || self.dynamic_true
    }

    pub fn union_identified(&self) -> bool {
        self.static_identified || self.dynamic_identified
    }

    fn or(&mut self, other: PageFlags) {
        self.static_identified |= other.static_identified;
        self.static_true |= other.static_true;
        self.dynamic_identified |= other.dynamic_identified;
        self.dynamic_true |= other.dynamic_true;
    }
}

/// One site's scan outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SiteScanRecord {
    pub rank: u32,
    pub domain: String,
    pub categories: Vec<Category>,
    pub front: PageFlags,
    /// Front ∪ subpages.
    pub site: PageFlags,
    /// `(provider domain, property)` pairs of OpenWPM-specific probes.
    pub openwpm_probes: Vec<(String, String)>,
    /// Hosting domains (eTLD+1) of third-party detector scripts.
    pub third_party_domains: Vec<String>,
    /// URLs of first-party detector scripts (Table 12 clustering input).
    pub first_party_urls: Vec<String>,
    /// FNV-1a hashes of every script body collected on this site (the
    /// paper's corpus statistic: 1,535,306 unique scripts over 100K sites).
    pub script_hashes: Vec<u64>,
}

/// Everything one site serves for a scan: identity plus the fully
/// materialised page specs the browser will visit, in order (front first).
/// Built from a generated [`SitePlan`] for live scans, or decoded from a
/// crawl bundle for replays — `scan_site_visit` cannot tell the
/// difference, which is what makes archived re-measurement exact.
#[derive(Clone, Debug)]
pub struct SiteVisit {
    pub rank: u32,
    pub domain: String,
    pub categories: Vec<Category>,
    /// Chronically flaky site (boosted fault rates).
    pub flaky: bool,
    pub pages: Vec<VisitSpec>,
}

/// Materialise a site's visit from its generated plan: the front page and
/// (with `include_subpages`, which every scan passes) up to three
/// subpages, each with the scan dwell that covers 500 ms-delayed probes
/// plus the 60 s dwell.
pub fn site_visit(plan: &SitePlan, include_subpages: bool) -> SiteVisit {
    let mut kinds = vec![PageKind::Front];
    if include_subpages {
        for i in 0..plan.subpage_count.min(3) {
            kinds.push(PageKind::Subpage(i));
        }
    }
    let pages = kinds
        .into_iter()
        .map(|kind| {
            let mut spec = visit_spec(plan, kind);
            spec.dwell_override_s = Some(61);
            spec
        })
        .collect();
    SiteVisit {
        rank: plan.rank,
        domain: plan.domain.clone(),
        categories: plan.categories.clone(),
        flaky: plan.flaky,
        pages,
    }
}

/// Scan one materialised [`SiteVisit`] (live or replayed) with a scanning
/// browser. A visit spec whose URL does not parse surfaces as a typed
/// [`FailureReason`] for the supervisor to record, instead of panicking
/// the worker. With `capture` set, a folded [`openwpm::StoreCapture`]
/// fingerprint of every record the visit produced is parked in the
/// worker's capture slot for the bundle recorder and replay verifier to
/// collect.
pub fn scan_site_visit(
    browser: &mut Browser,
    visit: &SiteVisit,
    capture: bool,
) -> Result<SiteScanRecord, FailureReason> {
    crate::archive::stash_capture(None);
    let mut record = SiteScanRecord {
        rank: visit.rank,
        domain: visit.domain.clone(),
        categories: visit.categories.clone(),
        front: PageFlags::default(),
        site: PageFlags::default(),
        openwpm_probes: Vec::new(),
        third_party_domains: Vec::new(),
        first_party_urls: Vec::new(),
        script_hashes: Vec::new(),
    };
    let mut captures = Vec::new();
    let honey_total = browser.config.honey_properties as usize;
    for (i, spec) in visit.pages.iter().enumerate() {
        // Flight-recorder breadcrumb: a forensic dump mid-visit names the
        // exact page in flight (detail allocation gated on the recorder).
        if obs::prof::recorder_armed() {
            obs::prof::ring_record("page", spec.url.clone());
        }
        browser.visit(spec, |_traffic| SiteResponse::default())?;
        let store = browser.take_store();
        if capture {
            captures.push(store.capture());
        }
        let flags = classify_page(&store, &visit.domain, honey_total, &mut record);
        if i == 0 {
            record.front = flags;
        }
        record.site.or(flags);
    }
    record.third_party_domains.sort();
    record.third_party_domains.dedup();
    record.first_party_urls.sort();
    record.first_party_urls.dedup();
    record.openwpm_probes.sort();
    record.openwpm_probes.dedup();
    if capture {
        crate::archive::stash_capture(Some(crate::archive::fold_captures(&captures)));
    }
    Ok(record)
}

/// Classify one page's records; appends attribution data to `record`.
/// `honey_total` is the honey property count of the browser that made
/// the records, the dynamic classifier's iterator denominator.
fn classify_page(
    store: &openwpm::RecordStore,
    domain: &str,
    honey_total: usize,
    record: &mut SiteScanRecord,
) -> PageFlags {
    let mut flags = PageFlags::default();
    let site_etld1 = etld1_of(domain);

    // --- static pipeline over saved scripts ---
    // One memoised classification per script body: the FNV-64 hash the
    // record keeps anyway doubles as the verdict-memo key, so a body shared
    // across subpages (or sites) is preprocessed and matched only once per
    // process.
    let mut static_by_url: BTreeMap<&str, detect::StaticFinding> = BTreeMap::new();
    for script in &store.saved_scripts {
        let body_hash = obs::fnv1a(script.body.as_bytes());
        record.script_hashes.push(body_hash);
        let verdict = detect::classify_memo(&script.body, body_hash);
        let finding = verdict.finding;
        if verdict.naive_webdriver || finding.is_detector() {
            flags.static_identified = true;
        }
        if finding.is_detector() {
            flags.static_true = true;
            attribute_script(&script.url, site_etld1.as_str(), record);
        }
        for prop in &finding.openwpm_props {
            if let Some(u) = Url::parse(&script.url) {
                record.openwpm_probes.push((u.etld1(), (*prop).to_owned()));
            }
        }
        static_by_url.insert(script.url.as_str(), finding);
    }

    // --- dynamic pipeline over recorded calls ---
    for obs in detect::observe(store) {
        let statically_flagged = static_by_url
            .get(obs.script_url.as_str())
            .map(|f| f.selenium)
            .unwrap_or(false);
        let touched = obs.accessed_webdriver || !obs.openwpm_props.is_empty();
        if touched {
            flags.dynamic_identified = true;
        }
        match obs.classify(honey_total, statically_flagged) {
            DynamicClass::Detector => {
                flags.dynamic_true = true;
                attribute_script(&obs.script_url, site_etld1.as_str(), record);
                for prop in &obs.openwpm_props {
                    if let Some(u) = Url::parse(&obs.script_url) {
                        let name = prop.trim_start_matches("window.").to_owned();
                        record.openwpm_probes.push((u.etld1(), name));
                    }
                }
            }
            DynamicClass::Inconclusive | DynamicClass::NotDetector => {}
        }
    }
    flags
}

fn attribute_script(script_url: &str, site_etld1: &str, record: &mut SiteScanRecord) {
    let Some(u) = Url::parse(script_url) else { return };
    let host_etld1 = u.etld1();
    if host_etld1 == site_etld1 {
        record.first_party_urls.push(script_url.to_owned());
    } else {
        record.third_party_domains.push(host_etld1);
    }
}

/// Classify a first-party detector URL into a Table 12 origin cluster by
/// its path pattern (the attribution method of Appx. A).
pub fn first_party_origin_of(url: &str) -> &'static str {
    let path = Url::parse(url).map(|u| u.path).unwrap_or_default();
    if path.starts_with("/akam/11/") {
        "Akamai"
    } else if path.contains("_Incapsula_Resource") {
        "Incapsula"
    } else if path.starts_with("/cdn-cgi/bm/cv/") {
        "Cloudflare"
    } else if path.ends_with("/init.js")
        && path.split('/').nth(1).map(|s| s.len() == 8).unwrap_or(false)
    {
        "PerimeterX"
    } else if path.starts_with("/assets/")
        && path.split('/').nth(2).map(|s| s.len() >= 31 && s.chars().all(|c| c.is_ascii_hexdigit())).unwrap_or(false)
    {
        "Unknown"
    } else {
        "SelfBuilt"
    }
}

/// Whole-scan report.
#[derive(Clone, Debug)]
pub struct ScanReport {
    pub n_sites: u32,
    /// Records of sites whose visits completed, in rank order. Every scan
    /// keeps them except [`Scan::stream_to`], which drops each record once
    /// it is flushed. Failed sites contribute no record —
    /// they are accounted in `completion` and `history` instead, and every
    /// printed table must carry the coverage denominator (the paper's
    /// completeness lesson).
    pub sites: Vec<SiteScanRecord>,
    /// Crawl completeness rollup.
    pub completion: CrawlSummary,
    /// Per-site `crawl_history` rows (ok / failed).
    pub history: Vec<CrawlHistoryRecord>,
    /// Bundle statistics of this run's writes when the scan had a bundle
    /// sink ([`Scan::record`] or [`Scan::stream_to`]).
    pub archive: Option<ArchiveStats>,
    /// Verification statistics when the scan was replayed (`Scan::replay`).
    pub replay: Option<ReplayStats>,
    /// Table state, folded from every completed record as it completed;
    /// every table method reads from here.
    pub aggregates: ScanAggregates,
    /// Crash-recovery and memory statistics when the scan had a bundle
    /// sink.
    pub stream: Option<StreamStats>,
}

impl ScanReport {
    /// Count completed sites whose `(front page, whole site)` detection
    /// flags satisfy `f`.
    pub fn count(&self, f: impl Fn(&PageFlags, &PageFlags) -> bool) -> u32 {
        self.aggregates.count(f)
    }

    /// The coverage statement printed under every table.
    pub fn coverage_line(&self) -> String {
        self.completion.coverage_line()
    }

    /// Table 5 rows: (static, dynamic, union) × (identified, true), over
    /// front + subpages.
    pub fn table5(&self) -> [(u32, u32); 3] {
        self.aggregates.table5()
    }

    /// Table 6: OpenWPM-specific probes per provider domain × property.
    pub fn table6(&self) -> BTreeMap<String, BTreeMap<String, u32>> {
        self.aggregates.table6.clone()
    }

    /// Table 7: third-party hosting domains by inclusion count (1/site).
    pub fn table7(&self) -> Vec<(String, u32)> {
        let mut v: Vec<(String, u32)> =
            self.aggregates.table7.iter().map(|(d, n)| (d.clone(), *n)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Table 12: first-party origin clusters.
    pub fn table12(&self) -> BTreeMap<&'static str, u32> {
        self.aggregates.table12.clone()
    }

    /// Fig. 3/4 series: per-1K-rank-bucket counts of
    /// `(front static, front dynamic, site static, site dynamic)`.
    pub fn rank_buckets(&self, bucket: u32) -> Vec<[u32; 4]> {
        let nb = self.n_sites.div_ceil(bucket);
        let mut out = vec![[0u32; 4]; nb as usize];
        for (rank, front, site) in &self.aggregates.flags {
            let b = &mut out[(rank / bucket) as usize];
            for (i, hit) in
                [front.static_true, front.dynamic_true, site.static_true, site.dynamic_true]
                    .into_iter()
                    .enumerate()
            {
                b[i] += hit as u32;
            }
        }
        out
    }

    /// Fig. 5: category tallies for first-party vs third-party detector
    /// sites.
    pub fn category_tallies(&self) -> (BTreeMap<&'static str, u32>, BTreeMap<&'static str, u32>) {
        (self.aggregates.cat_first.clone(), self.aggregates.cat_third.clone())
    }

    /// Corpus statistics: `(scripts collected, unique bodies)` — the paper
    /// collected 1,535,306 unique scripts over its crawl.
    pub fn script_stats(&self) -> (u64, u64) {
        (self.aggregates.scripts_total, self.aggregates.script_hashes.len() as u64)
    }

    /// Total first-party vs third-party detector inclusions (Sec. 4.3).
    pub fn inclusion_totals(&self) -> (u32, u32) {
        (self.aggregates.first_party_inclusions, self.aggregates.third_party_inclusions)
    }
}

/// Table state, folded one completed record at a time so a scan can drop
/// each [`SiteScanRecord`] the moment it is flushed to disk. `add` applies
/// the per-site dedup of every table, so the tables do not depend on
/// whether the records themselves were kept.
#[derive(Clone, Debug, Default)]
pub struct ScanAggregates {
    /// `(rank, front, site)` flags per completed site — 12 bytes/site,
    /// the only per-site residue (for `count` and `rank_buckets`).
    flags: Vec<(u32, PageFlags, PageFlags)>,
    table6: BTreeMap<String, BTreeMap<String, u32>>,
    table7: BTreeMap<String, u32>,
    table12: BTreeMap<&'static str, u32>,
    cat_first: BTreeMap<&'static str, u32>,
    cat_third: BTreeMap<&'static str, u32>,
    scripts_total: u64,
    script_hashes: HashSet<u64>,
    first_party_inclusions: u32,
    third_party_inclusions: u32,
}

impl ScanAggregates {
    /// Fold one completed site into every table.
    pub fn add(&mut self, s: &SiteScanRecord) {
        self.flags.push((s.rank, s.front, s.site));
        let mut per_site: Vec<&(String, String)> = s.openwpm_probes.iter().collect();
        per_site.sort();
        per_site.dedup();
        for (provider, prop) in per_site {
            *self
                .table6
                .entry(provider.clone())
                .or_default()
                .entry(prop.clone())
                .or_insert(0) += 1;
        }
        for d in &s.third_party_domains {
            *self.table7.entry(d.clone()).or_insert(0) += 1;
        }
        let mut origins: Vec<&'static str> =
            s.first_party_urls.iter().map(|u| first_party_origin_of(u)).collect();
        origins.sort();
        origins.dedup();
        for o in origins {
            *self.table12.entry(o).or_insert(0) += 1;
        }
        if s.site.union_true() {
            let target =
                if s.first_party_urls.is_empty() { &mut self.cat_third } else { &mut self.cat_first };
            for c in &s.categories {
                *target.entry(c.name()).or_insert(0) += 1;
            }
        }
        self.scripts_total += s.script_hashes.len() as u64;
        self.script_hashes.extend(s.script_hashes.iter().copied());
        self.first_party_inclusions += s.first_party_urls.len() as u32;
        self.third_party_inclusions += s.third_party_domains.len() as u32;
    }

    fn count(&self, f: impl Fn(&PageFlags, &PageFlags) -> bool) -> u32 {
        self.flags.iter().filter(|(_, front, site)| f(front, site)).count() as u32
    }

    pub fn table5(&self) -> [(u32, u32); 3] {
        [
            (
                self.count(|_, s| s.static_identified),
                self.count(|_, s| s.static_true),
            ),
            (
                self.count(|_, s| s.dynamic_identified),
                self.count(|_, s| s.dynamic_true),
            ),
            (
                self.count(|_, s| s.union_identified()),
                self.count(|_, s| s.union_true()),
            ),
        ]
    }
}

/// Recovery and memory statistics for a scan with a bundle sink.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// The sink reopened a partial bundle instead of starting one.
    pub resumed: bool,
    /// Records adopted from the bundle's intact lines without re-visiting.
    pub records_replayed: u64,
    /// Records flushed to the bundle by this run.
    pub records_flushed: u64,
    /// Torn manifest tail lines cut off on resume (0 or 1): the append a
    /// killed run was in the middle of. Its site is re-visited.
    pub bundle_tail_dropped: u64,
    /// High-water mark of completed records simultaneously alive in
    /// memory — bounded by the worker count, not the site count.
    pub peak_records_in_flight: u64,
}

/// One configured scan session — the single entry point for every scan.
/// A scan reads its sites from a *source* (the generator, or a recorded
/// bundle after [`Scan::replay`]) and may write them to a bundle *sink*
/// ([`Scan::record`] or [`Scan::stream_to`]):
///
/// ```ignore
/// // In memory:
/// let report = Scan::new(cfg).run()?;
/// // Streamed to a crash-consistent bundle, resumable by running again:
/// let report = Scan::new(cfg)
///     .stream_to("bundle")
///     .on_complete(|rank, outcome, attempts| { /* progress */ })
///     .run()?;
/// // Re-measured from the bundle:
/// let report = Scan::new(cfg).replay("bundle").run()?;
/// ```
///
/// `run` only returns `Err` for bundle I/O failures or a damaged bundle; a
/// scan without a source or sink directory cannot fail.
///
/// A scan runs under the [`CrawlCtx`](crate::CrawlCtx) current on the
/// thread that calls `run`: its telemetry, engine, compile cache, matcher
/// and verdict memo.
pub struct Scan<'a> {
    cfg: ScanConfig,
    replay_dir: Option<PathBuf>,
    sink: Option<BundleSink>,
    #[allow(clippy::type_complexity)]
    on_complete: Option<Box<dyn Fn(usize, &VisitOutcome<SiteScanRecord>, u32) + Sync + 'a>>,
}

/// The bundle a scan writes, and whether its report also keeps every
/// record in memory.
struct BundleSink {
    dir: PathBuf,
    keep_records: bool,
}

/// What the outcome vector keeps of a completed site: the record when the
/// report keeps records, nothing when the sink dropped it.
type Kept = Option<Box<SiteScanRecord>>;

impl<'a> Scan<'a> {
    pub fn new(cfg: ScanConfig) -> Scan<'a> {
        Scan { cfg, replay_dir: None, sink: None, on_complete: None }
    }

    /// Read sites from the committed bundle at `dir` instead of generating
    /// them: the recorded scan configuration is adopted (only `workers` is
    /// kept from this scan's config), pages are served from the archive,
    /// and every re-derived outcome is verified against the recorded one
    /// ([`ScanReport::replay`]). Combines with a sink: `.replay(a).record(b)`
    /// re-records `a` into `b`.
    pub fn replay(mut self, dir: impl Into<PathBuf>) -> Scan<'a> {
        self.replay_dir = Some(dir.into());
        self
    }

    /// Write the scan into the crawl bundle at `dir` exactly like
    /// [`Scan::stream_to`], and also keep every record in
    /// [`ScanReport::sites`].
    pub fn record(mut self, dir: impl Into<PathBuf>) -> Scan<'a> {
        self.sink = Some(BundleSink { dir: dir.into(), keep_records: true });
        self
    }

    /// Write the scan into the crawl bundle at `dir`: every served script
    /// body (content-deduplicated), page structure, typed outcome and
    /// record fingerprint is archived, flushing each completed record the
    /// moment it is determined and then *dropping it* — peak record memory
    /// is bounded by the worker count, not the site count. The bundle
    /// doubles as the checkpoint: each manifest entry also carries the
    /// visit's metrics delta. Whenever `dir` already holds a partial
    /// bundle, the run resumes: it adopts every intact entry, cuts off a
    /// torn final line, and re-visits only the sites without an entry. A
    /// damaged line anywhere else is an error. The resumed run's per-site
    /// records, tables and telemetry digest are byte-identical to an
    /// uninterrupted run. Every run ends with every site determined, so
    /// a `run` that returns `Ok` has sealed the bundle with the run's
    /// Table 5 and telemetry digest; a sealed bundle refuses further
    /// writes.
    pub fn stream_to(mut self, dir: impl Into<PathBuf>) -> Scan<'a> {
        self.sink = Some(BundleSink { dir: dir.into(), keep_records: false });
        self
    }

    /// Completion callback: fires once per newly-determined site (not for
    /// sites a resumed run adopts from its bundle), from worker threads.
    pub fn on_complete(
        mut self,
        f: impl Fn(usize, &VisitOutcome<SiteScanRecord>, u32) + Sync + 'a,
    ) -> Scan<'a> {
        self.on_complete = Some(Box::new(f));
        self
    }

    /// Execute the session. `Err` only for bundle I/O failures or damaged
    /// bundles.
    pub fn run(self) -> std::io::Result<ScanReport> {
        let ctx = crate::CrawlCtx::current();
        let (cfg, source, verifier) = match &self.replay_dir {
            Some(dir) => {
                let bundle = Arc::new(ReplayBundle::open(dir)?);
                // The recorded experiment defines the configuration; only
                // the degree of parallelism stays the caller's (results
                // are worker-count independent).
                let cfg = bundle.scan_config(self.cfg.workers);
                (cfg, ScanSource::Replay(Arc::clone(&bundle)), Some(Verifier::new(bundle)))
            }
            None => (self.cfg, ScanSource::Live(self.cfg.population()), None),
        };
        let keep = self.sink.as_ref().is_none_or(|s| s.keep_records);

        let (recorder, prior, prior_attempts, agg, stream) = match &self.sink {
            Some(sink) => {
                let s = open_sink(&sink.dir, &cfg, keep)?;
                (Some(s.recorder), s.prior, s.prior_attempts, s.agg, Some(s.stats))
            }
            None => (None, Vec::new(), Vec::new(), ScanAggregates::default(), None),
        };
        let capture = recorder.is_some() || verifier.is_some();
        let agg = Mutex::new(agg);
        let gauge = Arc::new(InFlight::default());
        let user = self.on_complete;
        let complete = |rank: usize, outcome: VisitOutcome<(SiteScanRecord, Live)>, attempts| {
            // Read the visit's metrics delta first: everything the visit
            // emitted, and none of the flush's own (digest-excluded)
            // bookkeeping below, which joins the delta afterwards and
            // reaches the registry with it when the scope closes.
            let delta = obs::scope_metrics().encode();
            let site_capture = take_capture();
            // The liveness token stays alive until the record has been
            // flushed and either kept or dropped.
            let mut live = None;
            let outcome = outcome.map(|(rec, token)| {
                live = Some(token);
                rec
            });
            if let VisitOutcome::Completed(rec) = &outcome {
                agg.lock().unwrap_or_else(|e| e.into_inner()).add(rec);
            }
            if let Some(v) = &verifier {
                v.check(rank, &outcome, attempts, site_capture);
            }
            if let Some(r) = &recorder {
                let visit = source.site_visit(rank as u32);
                r.flush(rank as u32, &visit, &outcome, attempts, &delta, site_capture);
            }
            if let Some(f) = &user {
                f(rank, &outcome, attempts);
            }
            outcome.map(|rec| keep.then(|| Box::new(rec)))
        };

        let seed = cfg.seed;
        let phase = obs::phase("scan.visits");
        let ctx = &ctx;
        let crawl = run_supervised(
            (0..cfg.n_sites).collect(),
            cfg.workers,
            cfg.faults,
            |rank: &u32| source.meta(*rank),
            move |worker| {
                // Every worker gets the *same* config seed: per-visit
                // event-id seeds are keyed by site rank (`set_visit_key`
                // below), so a site's records are identical no matter which
                // worker visits it — the property the telemetry determinism
                // tests pin down. The worker enters the scan's context
                // before building anything.
                let entered = ctx.enter();
                (entered, Browser::new(BrowserConfig::scanner(seed)).with_instance(worker as u32))
            },
            |(_, browser), _idx, rank: &u32| {
                browser.set_visit_key(*rank as u64);
                let visit = source.site_visit(*rank);
                scan_site_visit(browser, &visit, capture).map(|rec| (rec, Live::new(&gauge)))
            },
            prior,
            complete,
        );
        drop(phase);
        let _phase = obs::phase("scan.aggregate");
        let mut sites = Vec::new();
        let mut history = Vec::with_capacity(crawl.outcomes.len());
        for (i, outcome) in crawl.outcomes.into_iter().enumerate() {
            let rank = i as u32;
            let url = source.front_url(rank);
            // Adopted sites report 0 attempts this run; fall back to the
            // recorded count so a resumed history matches the original.
            let attempts = if crawl.attempts[i] > 0 {
                crawl.attempts[i]
            } else {
                prior_attempts.get(i).copied().unwrap_or(1)
            };
            match outcome {
                VisitOutcome::Completed(kept) => {
                    history.push(CrawlHistoryRecord::ok(rank as u64, &url, attempts));
                    sites.extend(kept.map(|rec| *rec));
                }
                VisitOutcome::Failed { reason, attempts } => {
                    history.push(CrawlHistoryRecord::failed(
                        rank as u64,
                        &url,
                        reason.as_str(),
                        attempts,
                    ));
                }
                // No crawl produces it (ROADMAP item 5).
                VisitOutcome::Interrupted => {
                    history.push(CrawlHistoryRecord::interrupted(rank as u64, &url));
                }
            }
        }
        let agg = agg.into_inner().unwrap_or_else(|e| e.into_inner());
        let mut completion = crawl.summary;
        let (archive, stream) = match (recorder, stream) {
            (Some(recorder), Some(mut stats)) => {
                completion.bundle_lines_dropped = stats.bundle_tail_dropped as usize;
                stats.peak_records_in_flight = gauge.peak.load(Ordering::Relaxed);
                let archive =
                    recorder.finish(&completion, agg.table5(), &ctx.telemetry, &mut stats)?;
                (Some(archive), Some(stats))
            }
            _ => (None, None),
        };
        Ok(ScanReport {
            n_sites: cfg.n_sites,
            sites,
            completion,
            history,
            archive,
            replay: verifier.map(|v| v.stats()),
            aggregates: agg,
            stream,
        })
    }
}

/// A bundle sink opened for one run: its recorder, plus everything the run
/// adopts from a resumed bundle's trusted prefix instead of re-visiting.
struct OpenSink {
    recorder: StreamRecorder,
    prior: Vec<Option<VisitOutcome<Kept>>>,
    prior_attempts: Vec<u32>,
    agg: ScanAggregates,
    stats: StreamStats,
}

/// Open the bundle sink at `dir`. No manifest, or an empty one, starts a
/// fresh bundle; any other manifest is resumed: every intact entry is
/// adopted and its metrics delta re-applied, so only the remaining sites
/// are visited.
fn open_sink(dir: &Path, cfg: &ScanConfig, keep: bool) -> std::io::Result<OpenSink> {
    let n = cfg.n_sites as usize;
    let mut prior: Vec<Option<VisitOutcome<Kept>>> = (0..n).map(|_| None).collect();
    let mut prior_attempts = vec![0u32; n];
    let mut agg = ScanAggregates::default();
    let mut stats = StreamStats::default();
    let fresh = match std::fs::metadata(dir.join(::archive::MANIFEST_FILE)) {
        Ok(m) => m.len() == 0,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => true,
        Err(e) => return Err(e),
    };
    if fresh {
        let recorder = StreamRecorder::create(dir, cfg)?;
        return Ok(OpenSink { recorder, prior, prior_attempts, agg, stats });
    }

    let (recorder, adopted, tail_dropped) = StreamRecorder::resume(dir, cfg)?;
    stats.resumed = true;
    stats.bundle_tail_dropped = tail_dropped;
    for site in adopted {
        let rank = site.rank as usize;
        obs::restore_metrics(&site.delta);
        prior_attempts[rank] = site.attempts;
        prior[rank] = Some(site.outcome.map(|rec| {
            agg.add(&rec);
            keep.then(|| Box::new(rec))
        }));
        stats.records_replayed += 1;
    }
    obs::add("crash.resume", 1);
    obs::add("crash.tail_dropped", tail_dropped);
    obs::emit(
        obs::Event::new(0, "stream_resume")
            .attr("replayed", stats.records_replayed as usize)
            .attr("tail_dropped", tail_dropped as usize),
    );
    Ok(OpenSink { recorder, prior, prior_attempts, agg, stats })
}

/// Where a scan's site content comes from: the deterministic generator
/// (live) or a recorded crawl bundle (replay). The supervisor, browser,
/// instruments and detection pipeline run identically either way.
pub(crate) enum ScanSource {
    Live(Population),
    Replay(Arc<ReplayBundle>),
}

impl ScanSource {
    fn meta(&self, rank: u32) -> ItemMeta {
        match self {
            ScanSource::Live(pop) => {
                let plan = pop.plan(rank);
                ItemMeta {
                    label: plan.front_url().to_string(),
                    fault_key: rank as u64,
                    flaky: plan.flaky,
                }
            }
            ScanSource::Replay(bundle) => {
                let visit = &bundle.site(rank).visit;
                ItemMeta {
                    label: self.front_url(rank),
                    fault_key: rank as u64,
                    flaky: visit.flaky,
                }
            }
        }
    }

    fn front_url(&self, rank: u32) -> String {
        match self {
            ScanSource::Live(pop) => pop.plan(rank).front_url().to_string(),
            ScanSource::Replay(bundle) => bundle
                .site(rank)
                .visit
                .pages
                .first()
                .map(|p| p.url.clone())
                .unwrap_or_default(),
        }
    }

    /// The pages a site serves. Live generation is deterministic in
    /// (population, rank) and bodies are memoised, so calling this again
    /// after the visit (the bundle sink does) yields what the browser saw,
    /// at Arc-clone cost.
    fn site_visit(&self, rank: u32) -> SiteVisit {
        match self {
            ScanSource::Live(pop) => site_visit(&pop.plan(rank), true),
            // Script bodies are `Arc<str>`, so cloning a recorded visit is
            // pointer-cheap.
            ScanSource::Replay(bundle) => bundle.site(rank).visit.clone(),
        }
    }
}

/// Gauge of completed [`SiteScanRecord`]s currently alive in memory. A
/// bundle sink's core claim — peak record memory is O(workers), not
/// O(sites) — is asserted against `peak` by `tests/chaos.rs`.
#[derive(Debug, Default)]
struct InFlight {
    cur: AtomicU64,
    peak: AtomicU64,
}

/// One completed record's liveness, paired with the record from the moment
/// the visit returns it. The `Drop` impl (rather than an explicit
/// decrement in the completion hook) keeps the gauge exact on every exit
/// path — including the supervisor's tab-crash branch, which discards an
/// `Ok` record without ever reaching the hook.
struct Live(Arc<InFlight>);

impl Live {
    fn new(gauge: &Arc<InFlight>) -> Live {
        let cur = gauge.cur.fetch_add(1, Ordering::Relaxed) + 1;
        gauge.peak.fetch_max(cur, Ordering::Relaxed);
        Live(Arc::clone(gauge))
    }
}

impl Drop for Live {
    fn drop(&mut self) {
        self.0.cur.fetch_sub(1, Ordering::Relaxed);
    }
}

// --- site-record encoding -------------------------------------------------
//
// ASCII control characters separate fields (they cannot occur in
// generated domains, URLs or property names): RS (\x1e) between record
// fields, GS (\x1d) between list elements, FS (\x1c) inside pairs.

const RS: char = '\x1e';
const GS: char = '\x1d';
const FS: char = '\x1c';

fn flags_encode(f: &PageFlags) -> String {
    [f.static_identified, f.static_true, f.dynamic_identified, f.dynamic_true]
        .iter()
        .map(|b| if *b { '1' } else { '0' })
        .collect()
}

fn flags_decode(s: &str) -> Option<PageFlags> {
    let b: Vec<bool> = s
        .chars()
        .map(|c| match c {
            '1' => Some(true),
            '0' => Some(false),
            _ => None,
        })
        .collect::<Option<Vec<bool>>>()?;
    if b.len() != 4 {
        return None;
    }
    Some(PageFlags {
        static_identified: b[0],
        static_true: b[1],
        dynamic_identified: b[2],
        dynamic_true: b[3],
    })
}

pub(crate) fn join_list<T>(items: &[T], f: impl Fn(&T) -> String) -> String {
    items.iter().map(f).collect::<Vec<String>>().join(&GS.to_string())
}

pub(crate) fn split_list(s: &str) -> Vec<&str> {
    if s.is_empty() {
        Vec::new()
    } else {
        s.split(GS).collect()
    }
}

/// Serialise a completed site record (the payload of its bundle entry).
pub fn encode_site_record(r: &SiteScanRecord) -> String {
    let fields = [
        r.rank.to_string(),
        r.domain.clone(),
        join_list(&r.categories, |c| c.name().to_string()),
        flags_encode(&r.front),
        flags_encode(&r.site),
        join_list(&r.openwpm_probes, |(p, n)| format!("{p}{FS}{n}")),
        join_list(&r.third_party_domains, |d| d.clone()),
        join_list(&r.first_party_urls, |u| u.clone()),
        join_list(&r.script_hashes, |h| format!("{h:x}")),
    ];
    fields.join(&RS.to_string())
}

/// Inverse of [`encode_site_record`]. `None` on any malformed input.
pub fn decode_site_record(s: &str) -> Option<SiteScanRecord> {
    let f: Vec<&str> = s.split(RS).collect();
    if f.len() != 9 {
        return None;
    }
    Some(SiteScanRecord {
        rank: f[0].parse().ok()?,
        domain: f[1].to_string(),
        categories: split_list(f[2])
            .into_iter()
            .map(Category::from_name)
            .collect::<Option<Vec<Category>>>()?,
        front: flags_decode(f[3])?,
        site: flags_decode(f[4])?,
        openwpm_probes: split_list(f[5])
            .into_iter()
            .map(|pair| {
                let (p, n) = pair.split_once(FS)?;
                Some((p.to_string(), n.to_string()))
            })
            .collect::<Option<Vec<(String, String)>>>()?,
        third_party_domains: split_list(f[6]).into_iter().map(String::from).collect(),
        first_party_urls: split_list(f[7]).into_iter().map(String::from).collect(),
        script_hashes: split_list(f[8])
            .into_iter()
            .map(|h| u64::from_str_radix(h, 16).ok())
            .collect::<Option<Vec<u64>>>()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_scan() -> ScanReport {
        Scan::new(ScanConfig { ..ScanConfig::new(800, 11) }).run().expect("scan")
    }

    #[test]
    fn scan_detects_sites_at_paper_like_rates() {
        let report = small_scan();
        let [(_si, st), (_di, dt), (ui, ut)] = report.table5();
        // At n=800 the paper's rates scale to: static true ≈ 127,
        // dynamic true ≈ 134, union true ≈ 150, identified union ≈ 290.
        assert!((90..=175).contains(&st), "static true = {st}");
        assert!((95..=180).contains(&dt), "dynamic true = {dt}");
        assert!((110..=200).contains(&ut), "union true = {ut}");
        assert!(ui > ut, "identified ({ui}) must exceed true ({ut}) — FP classes exist");
    }

    #[test]
    fn static_and_dynamic_have_exclusive_findings() {
        let report = small_scan();
        let static_only =
            report.count(|_, site| site.static_true && !site.dynamic_true);
        let dynamic_only =
            report.count(|_, site| site.dynamic_true && !site.static_true);
        assert!(static_only > 0, "hover-gated detectors must be static-only");
        assert!(dynamic_only > 0, "constructed probes must be dynamic-only");
    }

    #[test]
    fn subpages_increase_detection() {
        let report = small_scan();
        let front = report.count(|front, _| front.union_true());
        let site = report.count(|_, site| site.union_true());
        assert!(site > front, "subpage scan must add detector sites: {front} vs {site}");
        // Paper: ≥ 37% more sites with active (dynamic) detectors.
        let front_dyn = report.count(|front, _| front.dynamic_true);
        let site_dyn = report.count(|_, site| site.dynamic_true);
        assert!(
            site_dyn as f64 >= front_dyn as f64 * 1.15,
            "dynamic uplift too small: {front_dyn} -> {site_dyn}"
        );
    }

    #[test]
    fn openwpm_specific_probes_found() {
        let report = small_scan();
        let t6 = report.table6();
        // cheqzone is by far the largest provider (331/100K ⇒ ~2-3 at 800).
        assert!(
            t6.contains_key("cheqzone.com"),
            "providers found: {:?}",
            t6.keys().collect::<Vec<_>>()
        );
        let cheq = &t6["cheqzone.com"];
        assert!(cheq.contains_key("jsInstruments"), "cheq probes: {cheq:?}");
    }

    #[test]
    fn third_party_providers_ranked_with_yandex_on_top() {
        let report = small_scan();
        let t7 = report.table7();
        assert!(!t7.is_empty());
        // yandex.ru holds ~18% of inclusions — it must rank in the top 3.
        let top3: Vec<&str> = t7.iter().take(3).map(|(d, _)| d.as_str()).collect();
        assert!(top3.contains(&"yandex.ru"), "top3: {top3:?}");
    }

    #[test]
    fn first_party_clusters_match_table12_patterns() {
        let report = small_scan();
        let t12 = report.table12();
        let total: u32 = t12.values().sum();
        // 3,867/100K ⇒ ~31 at n=800.
        assert!((15..=50).contains(&total), "first-party sites = {total}, {t12:?}");
        assert!(t12.contains_key("Akamai") || t12.contains_key("Incapsula"), "{t12:?}");
    }

    #[test]
    fn first_party_origin_classifier() {
        assert_eq!(first_party_origin_of("https://a.com/akam/11/pixel"), "Akamai");
        assert_eq!(
            first_party_origin_of("https://a.com/_Incapsula_Resource?x=1"),
            "Incapsula"
        );
        assert_eq!(
            first_party_origin_of("https://a.com/cdn-cgi/bm/cv/2172558837/api.js"),
            "Cloudflare"
        );
        assert_eq!(first_party_origin_of("https://a.com/abcdefgh/init.js"), "PerimeterX");
        assert_eq!(
            first_party_origin_of(&format!("https://a.com/assets/{:032x}", 0xabcdu64)),
            "Unknown"
        );
        assert_eq!(first_party_origin_of("https://a.com/js/bot-check.js"), "SelfBuilt");
    }

    /// The dynamic classifier's iterator denominator is the visiting
    /// browser's honey count. A script enumerating `navigator` touches
    /// `webdriver` and all five honey names of a five-honey scanner, so it
    /// is an iterator, not a detector.
    #[test]
    fn honey_count_comes_from_the_browser_config() {
        let config = BrowserConfig { honey_properties: 5, ..BrowserConfig::scanner(1) };
        let source = "var seen = []; for (var k in navigator) { seen.push(navigator[k]); }";
        let visit = SiteVisit {
            rank: 0,
            domain: "enum.test".into(),
            categories: Vec::new(),
            flaky: false,
            pages: vec![VisitSpec {
                url: "https://enum.test/".into(),
                scripts: vec![openwpm::PageScript {
                    url: "https://enum.test/enum.js".into(),
                    source: source.into(),
                    content_type: "text/javascript".into(),
                }],
                dwell_override_s: Some(1),
                ..VisitSpec::default()
            }],
        };

        let mut probe = Browser::new(config.clone());
        probe.visit(&visit.pages[0], |_| SiteResponse::default()).expect("visit");
        let observed = detect::observe(&probe.take_store());
        let enumerator = observed
            .iter()
            .find(|o| o.script_url.ends_with("/enum.js"))
            .expect("the script touched the surface");
        assert!(enumerator.accessed_webdriver);
        assert_eq!(enumerator.honey_hits, 5, "every honey name is touched");

        let rec = scan_site_visit(&mut Browser::new(config), &visit, false).expect("scan");
        assert!(rec.site.dynamic_identified, "webdriver was read");
        assert!(!rec.site.static_identified, "no static pattern matches the script");
        assert!(!rec.site.dynamic_true, "an enumeration of every honey name is an iterator");
    }

    #[test]
    fn script_stats_count_collected_and_unique() {
        let report = small_scan();
        let (total, unique) = report.script_stats();
        assert!(total > 0);
        assert!(unique > 0 && unique <= total);
        // Shared third-party detector bodies dedupe heavily, per-site
        // scripts stay distinct-ish.
        assert!(unique < total, "shared provider scripts must dedupe");
    }

    #[test]
    fn rank_buckets_cover_all_sites() {
        let report = small_scan();
        let buckets = report.rank_buckets(100);
        assert_eq!(buckets.len(), 8);
        let front_static_total: u32 = buckets.iter().map(|b| b[0]).sum();
        assert_eq!(front_static_total, report.count(|front, _| front.static_true));
    }

    #[test]
    fn clean_scan_has_full_coverage_and_ok_history() {
        let report = small_scan();
        assert_eq!(report.completion.completed, 800);
        assert_eq!(report.completion.failed, 0);
        assert_eq!(report.completion.completion_rate(), 1.0);
        assert_eq!(report.history.len(), 800);
        assert!(report
            .history
            .iter()
            .all(|h| h.status == openwpm::CrawlStatus::Ok && h.attempts == 1));
        assert!(report.coverage_line().contains("800/800"));
    }

    #[test]
    fn faulty_scan_degrades_gracefully_and_reports_failures() {
        let cfg = ScanConfig {
            faults: FaultPlan::adversarial(21),
            ..ScanConfig::new(400, 55)
        };
        let report = Scan::new(cfg).run().expect("scan");
        assert_eq!(report.completion.total, 400);
        assert_eq!(report.sites.len(), report.completion.completed);
        assert_eq!(report.history.len(), 400);
        // Failed sites appear in history with a typed reason.
        for h in &report.history {
            if h.status == openwpm::CrawlStatus::Failed {
                assert!(FailureReason::parse(&h.error).is_some(), "reason {:?}", h.error);
                assert_eq!(h.attempts, openwpm::supervisor::MAX_ATTEMPTS);
            }
        }
        assert!(report.completion.completion_rate() > 0.9);
    }

    #[test]
    fn faulty_scan_is_deterministic_across_worker_counts() {
        let base = ScanConfig {
            faults: FaultPlan::adversarial(5),
            ..ScanConfig::new(300, 9)
        };
        let a = Scan::new(ScanConfig { workers: 1, ..base }).run().expect("scan");
        let b = Scan::new(ScanConfig { workers: 4, ..base }).run().expect("scan");
        assert_eq!(a.completion, b.completion);
        assert_eq!(a.history, b.history);
        assert_eq!(a.table5(), b.table5());
        assert_eq!(a.table12(), b.table12());
        // The surviving record set is identical site-for-site in the
        // fields the aggregates read (event-id seeds may differ with
        // worker count; classification flags are robust to that).
        assert_eq!(a.sites.len(), b.sites.len());
        for (x, y) in a.sites.iter().zip(&b.sites) {
            assert_eq!(x.rank, y.rank);
            assert_eq!(x.front, y.front);
            assert_eq!(x.site, y.site);
            assert_eq!(x.third_party_domains, y.third_party_domains);
            assert_eq!(x.first_party_urls, y.first_party_urls);
        }
    }

    #[test]
    fn site_record_roundtrips_through_checkpoint_encoding() {
        let report = small_scan();
        // Exercise a spread of records including detector-rich ones.
        for rec in report.sites.iter().take(200) {
            let enc = encode_site_record(rec);
            let dec = decode_site_record(&enc).expect("roundtrip decode");
            assert_eq!(dec, *rec);
        }
    }

    // The manifest is the checkpoint: its dropped lines are the dropped
    // checkpoint lines.
    #[test]
    fn dropped_checkpoint_lines_surface_on_the_coverage_line() {
        let mut summary = CrawlSummary {
            total: 10,
            completed: 10,
            bundle_lines_dropped: 1,
            ..Default::default()
        };
        assert!(
            summary.coverage_line().ends_with("; 1 bundle lines dropped"),
            "{}",
            summary.coverage_line()
        );
        summary.bundle_lines_dropped = 0;
        assert!(!summary.coverage_line().contains("dropped"));
    }
}
