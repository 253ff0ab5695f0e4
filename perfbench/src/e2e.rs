//! Untraced runs: the end-to-end repetition, the bundle recording that
//! `replay` reads, and the oracle reference.
//!
//! The workload drives the crawl only through public entry points:
//! `Scan` (in memory, streamed, replayed) and `run_compare`. Outputs are
//! reduced to digests here; `run.py` compares them with the reference.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use gullible::compare::{compare_set, CompareReport};
use gullible::scan::encode_site_record;
use gullible::{run_compare, Client, CompareConfig, Scan, ScanConfig, ScanReport, SiteScanRecord};
use netsim::{CookieParty, ResourceType};
use openwpm::{CrawlSummary, FaultPlan, VisitOutcome};
use webgen::Population;

use crate::json::{cpu_seconds, fnv1a, peak_rss_kib, thread_cpu_ns, unix_now, Obj};
use crate::{Opts, Workload};

/// Runs of the WPM vs WPM_hide comparison (the paper's r1–r3).
pub const COMPARE_RUNS: u32 = 3;

/// The scan configuration of a workload. `scan-stream` crawls under the
/// seeded adversarial weather with 1% chronically flaky sites; the other
/// scans are fault-free. `replay` adopts the recorded configuration, so
/// this is what `record` writes for it.
pub fn scan_config(o: &Opts) -> ScanConfig {
    let mut cfg = ScanConfig::new(o.sites, o.seed);
    cfg.workers = o.workers;
    if o.workload == Workload::ScanStream {
        cfg.faults = FaultPlan::adversarial(o.seed);
        cfg.flaky_sites_per_100k = 1_000;
    }
    cfg
}

/// The generated population's domains by rank: every completed record must
/// carry its rank's domain.
pub fn expected_domains(o: &Opts) -> Vec<String> {
    let pop = Population::new(o.sites, o.seed);
    (0..o.sites).map(|r| pop.plan(r).domain).collect()
}

/// The compile cache is process-global: a warm cache would time a
/// different (cheaper) crawl than the one users start.
pub fn assert_cold() -> Result<(), String> {
    let n = jsengine::cache().len();
    if n != 0 {
        return Err(format!(
            "compile cache holds {n} entries when timing starts"
        ));
    }
    Ok(())
}

static LOG_IDS: AtomicUsize = AtomicUsize::new(1);

thread_local! {
    /// (log id, wall time and on-CPU time of this thread's previous
    /// completion for that log).
    static LAST: Cell<(usize, Option<(Instant, u64)>)> = const { Cell::new((0, None)) };
}

/// A determined rank: the hash of its outcome line, and the hash of its
/// record when it completed.
type Outcome = (u64, Option<u64>);

/// What `Scan::on_complete` saw: per-item service times and one outcome
/// per rank.
pub struct Completions {
    id: usize,
    t0: Instant,
    /// (wall gap, on-CPU time) of the worker thread per item.
    service_ns: Mutex<Vec<(u64, u64)>>,
    outcomes: Mutex<Vec<Option<Outcome>>>,
    domain_mismatches: AtomicU64,
    record_bytes: AtomicU64,
    /// Nanoseconds from the start of the scan to its first completion.
    first_done_ns: AtomicU64,
}

impl Completions {
    pub fn new(sites: u32, t0: Instant) -> Completions {
        Completions {
            id: LOG_IDS.fetch_add(1, Ordering::Relaxed),
            t0,
            service_ns: Mutex::new(Vec::with_capacity(sites as usize)),
            outcomes: Mutex::new(vec![None; sites as usize]),
            domain_mismatches: AtomicU64::new(0),
            record_bytes: AtomicU64::new(0),
            first_done_ns: AtomicU64::new(u64::MAX),
        }
    }

    /// The completion hook. It runs on the worker thread, so the gap since
    /// that thread's previous call (or since the scan started) is one
    /// item's service time as the closed loop sees it. The thread's on-CPU
    /// time over the same interval is the item's service time without the
    /// time the worker was preempted.
    pub fn note(
        &self,
        expected: &[String],
        rank: usize,
        outcome: &VisitOutcome<SiteScanRecord>,
        attempts: u32,
    ) {
        let now = Instant::now();
        let cpu = thread_cpu_ns();
        let prev = LAST.with(|c| {
            let (id, t) = c.replace((self.id, Some((now, cpu))));
            if id == self.id {
                t
            } else {
                None
            }
        });
        // A worker's first item runs from the start of the scan, and its
        // thread from zero CPU time.
        let (prev_t, prev_cpu) = prev.unwrap_or((self.t0, 0));
        let gap = now.duration_since(prev_t).as_nanos() as u64;
        self.first_done_ns.fetch_min(
            now.duration_since(self.t0).as_nanos() as u64,
            Ordering::Relaxed,
        );
        let (line, rec) = match outcome {
            VisitOutcome::Completed(r) => {
                if expected.get(rank) != Some(&r.domain) {
                    self.domain_mismatches.fetch_add(1, Ordering::Relaxed);
                }
                let encoded = encode_site_record(r);
                self.record_bytes
                    .fetch_add(encoded.len() as u64, Ordering::Relaxed);
                let h = fnv1a(encoded.as_bytes());
                (format!("ok {attempts} {h:016x}"), Some(h))
            }
            VisitOutcome::Failed { reason, attempts } => {
                (format!("failed {attempts} {}", reason.as_str()), None)
            }
            VisitOutcome::Interrupted => ("interrupted".to_owned(), None),
        };
        self.service_ns
            .lock()
            .expect("service log poisoned")
            .push((gap, cpu.saturating_sub(prev_cpu)));
        if let Some(slot) = self
            .outcomes
            .lock()
            .expect("outcome log poisoned")
            .get_mut(rank)
        {
            *slot = Some((fnv1a(line.as_bytes()), rec));
        }
    }

    /// FNV-64 over every rank's outcome hash in rank order; `None` if some
    /// rank was never determined.
    pub fn digest(&self) -> Option<u64> {
        let outcomes = self.outcomes.lock().expect("outcome log poisoned");
        let mut s = String::with_capacity(outcomes.len() * 16);
        for o in outcomes.iter() {
            s.push_str(&format!("{:016x}", (*o)?.0));
        }
        Some(fnv1a(s.as_bytes()))
    }

    /// Record hash of each completed rank.
    pub fn record_hashes(&self) -> Vec<Option<u64>> {
        let outcomes = self.outcomes.lock().expect("outcome log poisoned");
        outcomes.iter().map(|o| o.and_then(|(_, r)| r)).collect()
    }

    fn json(&self) -> Obj {
        let service = self.service_ns.lock().expect("service log poisoned");
        Obj::default()
            .str(
                "digest",
                &self
                    .digest()
                    .map(|d| format!("{d:016x}"))
                    .unwrap_or_default(),
            )
            .int(
                "domain_mismatches",
                self.domain_mismatches.load(Ordering::Relaxed),
            )
            .num(
                "first_done_s",
                self.first_done_ns.load(Ordering::Relaxed) as f64 / 1e9,
            )
            .ints("gaps_ns", &service.iter().map(|s| s.0).collect::<Vec<_>>())
            .ints("cpu_ns", &service.iter().map(|s| s.1).collect::<Vec<_>>())
    }
}

pub fn record_hash(r: &SiteScanRecord) -> u64 {
    fnv1a(encode_site_record(r).as_bytes())
}

fn digest_of(x: &impl Debug) -> String {
    format!("{:016x}", fnv1a(format!("{x:?}").as_bytes()))
}

/// Bytes of a bundle's manifest plus blob store.
pub fn bundle_bytes(dir: &Path) -> u64 {
    ["manifest.gar", "blobs.gar"]
        .iter()
        .map(|f| std::fs::metadata(dir.join(f)).map(|m| m.len()).unwrap_or(0))
        .sum()
}

/// One timed, untraced scan.
pub struct ScanRun {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub report: ScanReport,
    pub log: Completions,
    /// Debug rendering of every table the table binaries print.
    pub tables: String,
    pub aggregate_s: f64,
}

/// Every table the scan's table binaries print: Tables 5–7, 11–12 and the
/// data of Figs. 3–5.
fn scan_tables(r: &ScanReport, sites: u32) -> impl Debug {
    (
        r.table5(),
        r.table6(),
        r.table7(),
        r.table12(),
        r.category_tallies(),
        r.script_stats(),
        r.inclusion_totals(),
        r.rank_buckets((sites / 10).max(1)),
    )
}

/// The timed region of a scan workload: `Scan::run` through the table
/// computations.
pub fn run_scan(o: &Opts, expected: &[String]) -> Result<ScanRun, String> {
    let cfg = scan_config(o);
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let log = Completions::new(o.sites, t0);
    let hook = |rank: usize, out: &VisitOutcome<SiteScanRecord>, attempts: u32| {
        log.note(expected, rank, out, attempts)
    };
    let scan = Scan::new(cfg).on_complete(hook);
    let scan = match o.workload {
        Workload::ScanMem => scan,
        Workload::ScanStream => scan.stream_to(&o.dir),
        Workload::Replay => scan.replay(&o.dir),
        Workload::Compare => unreachable!("compare is not a scan"),
    };
    let report = scan.run().map_err(|e| format!("scan failed: {e}"))?;
    let t_agg = Instant::now();
    let tables = scan_tables(&report, o.sites);
    let t1 = Instant::now();
    let cpu1 = cpu_seconds();
    Ok(ScanRun {
        wall_s: (t1 - t0).as_secs_f64(),
        cpu_s: cpu1 - cpu0,
        tables: format!("{tables:?}"),
        aggregate_s: (t1 - t_agg).as_secs_f64(),
        report,
        log,
    })
}

fn summary_json(s: &CrawlSummary) -> Obj {
    Obj::default()
        .int("attempted", s.total as u64)
        .int("completed", s.completed as u64)
        .int("failed_sites", s.failed as u64)
}

/// One client's Tables 8–10 figures in one run: requests by type, then
/// total requests, EasyList and EasyPrivacy hits, first- and third-party
/// cookies, tracking cookies and CSP-blocked instrument installs.
type ClientTables = (BTreeMap<ResourceType, u64>, [u64; 7]);

/// The tables of Sec. 6.3 per run: both clients' Tables 8–10, then the
/// Wilcoxon tests and the Fig. 6 coverage rendered as text.
pub fn compare_tables(r: &CompareReport) -> Vec<(Vec<ClientTables>, String)> {
    (0..r.runs.len())
        .map(|i| {
            let (wpm, hide) = &r.runs[i];
            let clients = [(Client::Wpm, wpm), (Client::WpmHide, hide)]
                .into_iter()
                .map(|(client, data)| {
                    let mut by_type: BTreeMap<ResourceType, u64> = BTreeMap::new();
                    for s in &data.sites {
                        for (rt, n) in &s.requests_by_type {
                            *by_type.entry(*rt).or_insert(0) += *n as u64;
                        }
                    }
                    let sums = [
                        data.total_requests(),
                        data.easylist_total(),
                        data.easyprivacy_total(),
                        data.cookies_of(CookieParty::First),
                        data.cookies_of(CookieParty::Third),
                        r.tracking_cookies(client, i),
                        data.blocked_sites() as u64,
                    ];
                    (by_type, sums)
                })
                .collect();
            let tests = format!(
                "{:?}{:?}{:?}",
                r.wilcoxon_trackers(i),
                r.wilcoxon_cookies(i),
                r.coverage(i)
            );
            (clients, tests)
        })
        .collect()
}

/// One timed, untraced comparison.
pub struct CompareRun {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub report: CompareReport,
    pub tables: String,
    pub tables_s: f64,
    pub items: u64,
}

pub fn compare_config(o: &Opts) -> CompareConfig {
    CompareConfig {
        n_sites: o.sites,
        seed: o.seed,
        runs: COMPARE_RUNS,
        workers: o.workers,
    }
}

pub fn run_compare_timed(o: &Opts) -> CompareRun {
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let report = run_compare(compare_config(o));
    let t_tab = Instant::now();
    let tables = compare_tables(&report);
    let t1 = Instant::now();
    let cpu1 = cpu_seconds();
    let items = report
        .runs
        .iter()
        .map(|(w, h)| (w.sites.len() + h.sites.len()) as u64)
        .sum();
    CompareRun {
        wall_s: (t1 - t0).as_secs_f64(),
        cpu_s: cpu1 - cpu0,
        tables: format!("{tables:?}"),
        tables_s: (t1 - t_tab).as_secs_f64(),
        report,
        items,
    }
}

/// Refuse to stream into a directory that already holds a bundle:
/// `Scan::stream_to` would resume it and time a no-op.
pub fn require_empty_dir(dir: &Path) -> Result<(), String> {
    let occupied = std::fs::read_dir(dir)
        .map(|mut d| d.next().is_some())
        .unwrap_or(false);
    if occupied {
        return Err(format!(
            "{} is not empty; a bundle needs a fresh directory",
            dir.display()
        ));
    }
    Ok(())
}

/// `perfbench rep`: set up, time one run, report raw figures.
pub fn rep(o: &Opts) -> Result<String, String> {
    let common = |wall_s: f64, cpu_s: f64, items: u64, t0_unix: f64| {
        Obj::default()
            .num("t0_unix", t0_unix)
            .num("wall_s", wall_s)
            .num("cpu_s", cpu_s)
            .int("items", items)
            .int("workers", o.workers as u64)
    };
    if o.workload == Workload::Compare {
        let pop = Population::new(o.sites, o.seed);
        let set = compare_set(&pop);
        assert_cold()?;
        let t0_unix = unix_now();
        let run = run_compare_timed(o);
        let set_ok = run.report.compare_set == set;
        let summary_bytes: u64 = run
            .report
            .runs
            .iter()
            .flat_map(|(w, h)| w.sites.iter().chain(h.sites.iter()))
            .map(|s| format!("{s:?}").len() as u64)
            .sum();
        return Ok(common(run.wall_s, run.cpu_s, run.items, t0_unix)
            .int("attempted", run.items)
            .int("completed", run.items)
            .str("digest", &digest_of(&run.tables))
            .boolean("compare_set_ok", set_ok)
            .int("output_bytes", summary_bytes)
            .int("rss_kib", peak_rss_kib())
            .finish());
    }
    let expected = expected_domains(o);
    if o.workload == Workload::ScanStream {
        require_empty_dir(&o.dir)?;
    }
    assert_cold()?;
    let t0_unix = unix_now();
    let run = run_scan(o, &expected)?;
    let output_bytes = match o.workload {
        Workload::ScanMem => run.log.record_bytes.load(Ordering::Relaxed),
        _ => bundle_bytes(&o.dir),
    };
    let replay = run.report.replay.unwrap_or_default();
    Ok(common(run.wall_s, run.cpu_s, o.sites as u64, t0_unix)
        .merge(summary_json(&run.report.completion))
        .merge(run.log.json())
        .str("table5", &format!("{:?}", run.report.table5()))
        .str("tables", &digest_of(&run.tables))
        .int("output_bytes", output_bytes)
        .int("replay_sites", replay.sites)
        .int("divergences", replay.divergences)
        .int("rss_kib", peak_rss_kib())
        .finish())
}

/// `perfbench record`: the fault-free bundle `replay` reads.
pub fn record(o: &Opts) -> Result<String, String> {
    require_empty_dir(&o.dir)?;
    let cfg = scan_config(&Opts {
        workload: Workload::ScanMem,
        dir: o.dir.clone(),
        ..*o
    });
    let report = Scan::new(cfg)
        .record(&o.dir)
        .run()
        .map_err(|e| format!("record failed: {e}"))?;
    Ok(Obj::default()
        .int("completed", report.completion.completed as u64)
        .finish())
}

/// `perfbench oracle`: the reference outputs, computed with the oracle
/// backends (tree-walking interpreter, naive matcher) on one worker and an
/// in-memory sink, independently of the default fast paths.
pub fn oracle(o: &Opts) -> Result<String, String> {
    jsengine::set_default_engine(jsengine::Engine::Tree);
    detect::set_default_matcher(detect::MatcherKind::Naive);
    // A replay reproduces the fault-free scan of the same population.
    let workload = match o.workload {
        Workload::Replay => Workload::ScanMem,
        w => w,
    };
    let one = Opts {
        workload,
        workers: 1,
        dir: o.dir.clone(),
        ..*o
    };
    if o.workload == Workload::Compare {
        let report = run_compare(compare_config(&one));
        let tables = format!("{:?}", compare_tables(&report));
        return Ok(Obj::default().str("digest", &digest_of(&tables)).finish());
    }
    let expected = expected_domains(&one);
    let cfg = scan_config(&one);
    let log = Completions::new(o.sites, Instant::now());
    let report = Scan::new(cfg)
        .on_complete(|rank, out, attempts| log.note(&expected, rank, out, attempts))
        .run()
        .map_err(|e| format!("oracle scan failed: {e}"))?;
    let tables = format!("{:?}", scan_tables(&report, o.sites));
    Ok(Obj::default()
        .str(
            "digest",
            &log.digest()
                .map(|d| format!("{d:016x}"))
                .unwrap_or_default(),
        )
        .str("table5", &format!("{:?}", report.table5()))
        .str("tables", &digest_of(&tables))
        .int("completed", report.completion.completed as u64)
        .int("failed_sites", report.completion.failed as u64)
        .finish())
}
