//! The traced run: spans recorded from the benchmark's own code around
//! calls into each layer, then the same workload untraced for the tracing
//! overhead.
//!
//! A span has a name, start, end, parent span and a key (site rank, or
//! run/client/rank for the comparison). Spans stay in per-worker memory
//! and are written to `<dir>/spans.tsv` at exit; a span's self time is its
//! duration minus its children's.
//!
//! For scans, each site is traced in `scan_site_visit`'s order. The site is
//! first scanned for real by `scan_site_visit` (the measured records);
//! then every page is re-visited on a *probe* browser of the same
//! configuration and visit key, whose store feeds the detect spans, and
//! `open_page` is timed on a third browser because it advances that
//! browser's visit-seed counter. The page's split below `open_page`
//! (realm instantiate, instrument installs, compile, execute) runs on a
//! per-worker realm template and a private compile cache, so neither the
//! measured browser's records nor the global compile cache change.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use browser::PageTemplate;
use gullible::compare::compare_set;
use gullible::scan::{encode_site_record, scan_site_visit, site_visit, SiteVisit};
use gullible::ReplayBundle;
use jsengine::CompileCache;
use netsim::Url;
use openwpm::instrument::{honey, stealth, vanilla, watch, StoreHandle};
use openwpm::manager::run_parallel_chunked;
use openwpm::{Browser, BrowserConfig, JsInstrumentKind, RecordStore, SiteResponse, VisitSpec};
use webgen::{behaviour, blocklists, verdict_from_traffic, visit_spec, PageKind, Population};

use crate::e2e::{self, record_hash, COMPARE_RUNS};
use crate::json::{fnv1a, Obj};
use crate::{Opts, Workload};

/// The trace must attribute all but this share of the traced site (or
/// visit) wall time to named layer spans.
const MAX_UNEXPLAINED_PCT: f64 = 10.0;

/// Honey properties of the scanning client (`BrowserConfig::scanner`),
/// the denominator the dynamic classifier uses.
const HONEY_TOTAL: usize = 10;

const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy)]
struct Span {
    name: &'static str,
    key: u64,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
}

/// Per-worker span buffer with the stack of open spans.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::with_capacity(1 << 14),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str, key: u64) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            key,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.open.push(id);
        id
    }

    fn end(&mut self, id: u32) {
        let end_ns = self.now();
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must nest");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Time `f` as one span.
    fn span<R>(&mut self, name: &'static str, key: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, key);
        let r = f();
        self.end(id);
        r
    }
}

/// Counters shared by every worker of one traced pass.
#[derive(Default)]
struct Shared {
    pages: AtomicU64,
    rec_http: AtomicU64,
    rec_js_calls: AtomicU64,
    rec_cookies: AtomicU64,
    rec_scripts: AtomicU64,
    /// Body hashes already scanned by the memo-bypassing static span.
    scanned: Mutex<HashSet<u64>>,
    scanned_bytes: AtomicU64,
    blocklist_requests: AtomicU64,
    blocklist_checks: AtomicU64,
    /// Record hash per rank from the traced `scan_site_visit`.
    records: Mutex<Vec<Option<u64>>>,
}

impl Shared {
    fn count_store(&self, store: &RecordStore) {
        self.pages.fetch_add(1, Ordering::Relaxed);
        self.rec_http
            .fetch_add(store.http_requests.len() as u64, Ordering::Relaxed);
        self.rec_js_calls
            .fetch_add(store.js_calls.len() as u64, Ordering::Relaxed);
        self.rec_cookies
            .fetch_add(store.cookies.len() as u64, Ordering::Relaxed);
        self.rec_scripts
            .fetch_add(store.saved_scripts.len() as u64, Ordering::Relaxed);
    }
}

/// One traced worker: the measured browser plus the probes.
struct Worker<'a> {
    tr: Tracer,
    cfg: BrowserConfig,
    browser: Browser,
    probe: Browser,
    opener: Browser,
    template: PageTemplate,
    cache: CompileCache,
    shared: &'a Shared,
    sink: &'a Mutex<Vec<Vec<Span>>>,
}

impl<'a> Worker<'a> {
    fn new(
        index: usize,
        cfg: BrowserConfig,
        epoch: Instant,
        shared: &'a Shared,
        sink: &'a Mutex<Vec<Vec<Span>>>,
    ) -> Worker<'a> {
        let mut tr = Tracer::new(epoch);
        let instance = index as u32;
        let browser = Browser::new(cfg.clone()).with_instance(instance);
        let probe = Browser::new(cfg.clone()).with_instance(instance);
        let opener = Browser::new(cfg.clone()).with_instance(instance);
        let profile = probe.profile();
        let template = tr.span("browser.template_build", index as u64, || {
            PageTemplate::new(profile)
        });
        Worker {
            tr,
            cfg,
            browser,
            probe,
            opener,
            template,
            cache: CompileCache::with_shards(1),
            shared,
            sink,
        }
    }

    /// The split of one page below `Browser::visit`: `open_page` on its
    /// own browser, then realm instantiate, instrument installs, compile
    /// (private cache) and execution on the worker's template.
    fn probe_page(&mut self, spec: &VisitSpec, key: u64) {
        let opener = &mut self.opener;
        self.tr.span("openwpm.open_page", key, || {
            drop(black_box(opener.open_page(spec)))
        });
        let Some(url) = Url::parse(&spec.url) else {
            return;
        };
        let template = &self.template;
        let mut page = self.tr.span("browser.instantiate", key, || {
            let page = template.instantiate(url.clone(), spec.csp.clone());
            for (rurl, ctype, body) in &spec.server_resources {
                page.add_server_resource(rurl, ctype, body);
            }
            page
        });
        let store: StoreHandle = Rc::new(RefCell::new(RecordStore::new()));
        let page_url = url.to_string();
        let cfg = &self.cfg;
        match cfg.js_instrument {
            JsInstrumentKind::Vanilla => {
                self.tr.span("openwpm.install.vanilla", key, || {
                    vanilla::install(&mut page, key, store.clone(), page_url.clone())
                });
            }
            JsInstrumentKind::Stealth => {
                self.tr.span("openwpm.install.stealth", key, || {
                    stealth::install(&mut page, &cfg.stealth, store.clone(), page_url.clone())
                });
            }
            JsInstrumentKind::Off => {}
        }
        if cfg.watch_openwpm_props {
            self.tr.span("openwpm.install.watch", key, || {
                watch::install(&mut page, store.clone(), page_url.clone())
            });
        }
        if cfg.honey_properties > 0 && cfg.js_instrument != JsInstrumentKind::Off {
            self.tr.span("openwpm.install.honey", key, || {
                honey::install(&mut page, store.clone(), key, cfg.honey_properties)
            });
        }
        let vm = jsengine::default_engine() == jsengine::Engine::Vm;
        for script in &spec.scripts {
            let id = self.tr.begin("jsengine.compile.hit", key);
            let misses = self.cache.stats().misses;
            let compiled = self.cache.get_or_compile(&script.source, &script.url);
            if let (Ok(cs), true) = (&compiled, vm) {
                black_box(cs.chunk());
            }
            if self.cache.stats().misses > misses {
                self.tr.spans[id as usize].name = "jsengine.compile.miss";
            }
            self.tr.end(id);
            if let Ok(cs) = compiled {
                let ran = self.tr.span("jsengine.exec", key, || page.run_script(&cs));
                drop(black_box(ran));
            }
        }
        // Tearing down the cloned realm is part of every visit.
        self.tr.span("browser.page_drop", key, || drop(page));
    }

    /// Trace one site of a scan workload.
    fn trace_site(
        &mut self,
        rank: u32,
        source: &Source,
        capture: bool,
        writer: Option<&archive::BundleWriter>,
    ) {
        let key = rank as u64;
        let root = self.tr.begin("site", key);
        let visit: SiteVisit = match source {
            Source::Live(pop) => self.tr.span("webgen.materialise", key, || {
                site_visit(&pop.plan(rank), true)
            }),
            Source::Recorded(visits) => visits[rank as usize].clone(),
        };
        self.browser.set_visit_key(key);
        let browser = &mut self.browser;
        let rec = self.tr.span("core.scan_site", key, || {
            scan_site_visit(browser, &visit, capture)
        });
        if let (Ok(rec), Some(w)) = (&rec, writer) {
            let encoded = self
                .tr
                .span("archive.encode", key, || encode_site_record(rec));
            self.tr.span("archive.append", key, || {
                for script in visit.pages.iter().flat_map(|p| p.scripts.iter()) {
                    w.put_blob(&script.source)
                        .expect("scratch bundle blob write");
                }
                w.append_entry(&encoded).expect("scratch bundle append")
            });
        }
        self.probe.set_visit_key(key);
        for spec in &visit.pages {
            let probe = &mut self.probe;
            let visited = self.tr.span("openwpm.visit", key, || {
                probe.visit(spec, |_| SiteResponse::default())
            });
            drop(black_box(visited));
            let store = self
                .tr
                .span("openwpm.take_store", key, || probe.take_store());
            self.shared.count_store(&store);
            let hashes: Vec<u64> = self.tr.span("detect.static", key, || {
                store
                    .saved_scripts
                    .iter()
                    .map(|s| {
                        let h = fnv1a(s.body.as_bytes());
                        black_box(detect::classify_memo(&s.body, h));
                        h
                    })
                    .collect()
            });
            for (s, h) in store.saved_scripts.iter().zip(hashes) {
                let fresh = self.shared.scanned.lock().expect("scanned set").insert(h);
                if fresh {
                    self.tr.span("detect.static_scan", key, || {
                        black_box(detect::classify_with(
                            detect::MatcherKind::Automaton,
                            &s.body,
                        ))
                    });
                    self.shared
                        .scanned_bytes
                        .fetch_add(s.body.len() as u64, Ordering::Relaxed);
                }
            }
            self.tr.span("detect.dynamic", key, || {
                for o in detect::observe(&store) {
                    black_box(o.classify(HONEY_TOTAL, false));
                }
            });
            self.tr.span("openwpm.store_drop", key, || drop(store));
            self.probe_page(spec, key);
        }
        self.tr.end(root);
        if let Ok(rec) = &rec {
            self.shared.records.lock().expect("record log")[rank as usize] = Some(record_hash(rec));
        }
    }

    /// Trace one client's visit to one comparison site, in `visit_one`'s
    /// order. Returns whether the site flagged the client.
    fn trace_compare_visit(
        &mut self,
        pop: &Population,
        rank: u32,
        run: u32,
        client: u64,
        tag: u64,
        flagged_before: bool,
    ) -> bool {
        let key = (run as u64) << 40 | client << 32 | rank as u64;
        let root = self.tr.begin("visit", key);
        let (plan, spec) = self.tr.span("webgen.materialise", key, || {
            let plan = pop.plan(rank);
            let mut spec = visit_spec(&plan, PageKind::Front);
            spec.dwell_override_s = Some(61);
            (plan, spec)
        });
        let flagged = Cell::new(false);
        let id = self.tr.begin("openwpm.visit", key);
        let tr = &mut self.tr;
        let visited = self.browser.visit(&spec, |traffic| {
            tr.span("webgen.respond", key, || {
                let f = verdict_from_traffic(traffic);
                flagged.set(f);
                behaviour::site_response(&plan, run, tag, f, flagged_before)
            })
        });
        drop(black_box(visited));
        self.tr.end(id);
        let browser = &mut self.browser;
        let store = self
            .tr
            .span("openwpm.take_store", key, || browser.take_store());
        self.shared.count_store(&store);
        let (easylist, easyprivacy) = self.tr.span("webgen.blocklist_load", key, || {
            (blocklists::easylist(), blocklists::easyprivacy())
        });
        self.tr.span("netsim.blocklist", key, || {
            for req in &store.http_requests {
                black_box(easylist.matches(req));
                black_box(easyprivacy.matches(req));
            }
        });
        let n = store.http_requests.len() as u64;
        self.shared
            .blocklist_requests
            .fetch_add(n, Ordering::Relaxed);
        self.shared
            .blocklist_checks
            .fetch_add(2 * n, Ordering::Relaxed);
        self.probe_page(&spec, key);
        self.tr.end(root);
        flagged.get()
    }
}

impl Drop for Worker<'_> {
    fn drop(&mut self) {
        let spans = std::mem::take(&mut self.tr.spans);
        if let Ok(mut sink) = self.sink.lock() {
            sink.push(spans);
        }
    }
}

/// Where a traced scan's pages come from.
enum Source {
    Live(Population),
    /// `replay` bypasses the generator; its pages are the recorded ones,
    /// re-materialised before tracing starts because `ReplayBundle`
    /// exposes no per-site accessor. Their cost is not traced.
    Recorded(Vec<SiteVisit>),
}

#[derive(Default, Clone, Copy)]
struct Agg {
    count: u64,
    total_ns: u64,
    self_ns: u64,
}

fn aggregate(all: &[Vec<Span>]) -> HashMap<&'static str, Agg> {
    let mut out: HashMap<&'static str, Agg> = HashMap::new();
    for spans in all {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        for (s, c) in spans.iter().zip(child_ns) {
            let a = out.entry(s.name).or_default();
            let d = s.end_ns - s.start_ns;
            a.count += 1;
            a.total_ns += d;
            a.self_ns += d.saturating_sub(c);
        }
    }
    out
}

fn write_spans(path: &Path, all: &[Vec<Span>]) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "worker\tid\tparent\tname\tkey\tstart_ns\tend_ns")?;
    for (w, spans) in all.iter().enumerate() {
        for (i, s) in spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                s.parent as i64
            };
            writeln!(
                f,
                "{w}\t{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.name, s.key, s.start_ns, s.end_ns
            )?;
        }
    }
    f.flush()
}

/// Scheduler coordination cost: `run_parallel_chunked` over no-op items.
fn sched_ns_per_item(workers: usize) -> f64 {
    let n = 200_000u32;
    let t = Instant::now();
    let out = run_parallel_chunked(
        (0..n).collect(),
        workers,
        0,
        |_| (),
        |_, _, x: u32| black_box(x),
    );
    black_box(out);
    t.elapsed().as_nanos() as f64 / n as f64
}

/// `perfbench trace`: traced pass, then the untraced run of the same
/// workload, then the per-layer metrics (keys prefixed `L:`).
pub fn run(o: &Opts) -> Result<String, String> {
    std::fs::create_dir_all(&o.dir).map_err(|e| format!("create {}: {e}", o.dir.display()))?;
    e2e::assert_cold()?;
    let epoch = Instant::now();
    let shared = Shared {
        records: Mutex::new(vec![None; o.sites as usize]),
        ..Shared::default()
    };
    let sink: Mutex<Vec<Vec<Span>>> = Mutex::new(Vec::new());
    let mut m = Obj::default();
    let mut archive_open_ms = 0.0;
    let mut archive_read_us = 0.0;

    let traced_wall = if o.workload == Workload::Compare {
        let pop = Population::new(o.sites, o.seed);
        let set = compare_set(&pop);
        let t = Instant::now();
        let mut memory: HashSet<(u64, u32)> = HashSet::new();
        for run in 1..=COMPARE_RUNS {
            for client in [0u64, 1] {
                let seen: HashSet<u32> = set
                    .iter()
                    .copied()
                    .filter(|r| memory.contains(&(client, *r)))
                    .collect();
                // A per-client cookie salt: it changes cookie values, not
                // the work a visit does.
                let tag = o.seed.rotate_left(17) ^ (client + 1);
                let flagged = run_parallel_chunked(
                    set.clone(),
                    o.workers,
                    0,
                    |w| {
                        let seed = o.seed ^ (run as u64) << 32 ^ w as u64;
                        let cfg = if client == 0 {
                            BrowserConfig::vanilla(seed)
                        } else {
                            BrowserConfig::stealth(seed)
                        };
                        Worker::new(w, cfg, epoch, &shared, &sink)
                    },
                    |w, _, rank| {
                        (
                            rank,
                            w.trace_compare_visit(
                                &pop,
                                rank,
                                run,
                                client,
                                tag,
                                seen.contains(&rank),
                            ),
                        )
                    },
                );
                memory.extend(
                    flagged
                        .into_iter()
                        .filter(|(_, f)| *f)
                        .map(|(r, _)| (client, r)),
                );
            }
        }
        t.elapsed().as_secs_f64()
    } else {
        let pop = Population::new(o.sites, o.seed);
        let source = if o.workload == Workload::Replay {
            let t = Instant::now();
            black_box(ReplayBundle::open(&o.dir).map_err(|e| format!("open bundle: {e}"))?);
            archive_open_ms = t.elapsed().as_secs_f64() * 1e3;
            let t = Instant::now();
            let reader =
                archive::BundleReader::open(&o.dir).map_err(|e| format!("read bundle: {e}"))?;
            archive_read_us = t.elapsed().as_secs_f64() * 1e6 / reader.entries.len().max(1) as f64;
            Source::Recorded(
                (0..o.sites)
                    .map(|r| site_visit(&pop.plan(r), true))
                    .collect(),
            )
        } else {
            Source::Live(pop)
        };
        let writer = if o.workload == Workload::ScanStream {
            Some(
                archive::BundleWriter::create(o.dir.join("trace-bundle"), "perfbench-trace")
                    .map_err(|e| e.to_string())?,
            )
        } else {
            None
        };
        let capture = o.workload != Workload::ScanMem;
        let t = Instant::now();
        run_parallel_chunked(
            (0..o.sites).collect(),
            o.workers,
            0,
            |w| Worker::new(w, BrowserConfig::scanner(o.seed), epoch, &shared, &sink),
            |w, _, rank: u32| w.trace_site(rank, &source, capture, writer.as_ref()),
        );
        t.elapsed().as_secs_f64()
    };
    let all = std::mem::take(&mut *sink.lock().map_err(|_| "span sink poisoned")?);
    write_spans(&o.dir.join("spans.tsv"), &all).map_err(|e| format!("write spans: {e}"))?;
    let agg = aggregate(&all);
    let get = |n: &str| agg.get(n).copied().unwrap_or_default();
    let us = |ns: u64| ns as f64 / 1e3;
    let mean_us = |n: &str| {
        let a = get(n);
        if a.count == 0 {
            0.0
        } else {
            us(a.total_ns) / a.count as f64
        }
    };

    // The untraced run of the same workload and seed, cold again.
    jsengine::cache().clear();
    detect::clear_verdict_memo();
    e2e::assert_cold()?;
    let untraced = if o.workload == Workload::Compare {
        let run = e2e::run_compare_timed(o);
        m = m
            .str(
                "digest",
                &format!("{:016x}", fnv1a(format!("{:?}", run.tables).as_bytes())),
            )
            .int("items", run.items)
            .int("attempted", run.items)
            .int("completed", run.items)
            .num("L:core.compare_tables_ms", run.tables_s * 1e3)
            .num("L:core.aggregate_ms", 0.0)
            .num("L:openwpm.attempts_per_site", 1.0)
            .num("L:openwpm.retries", 0.0)
            .num("L:openwpm.restarts", 0.0)
            .num("L:archive.dedup_ratio", 0.0)
            .boolean("trace_records_ok", true);
        run.wall_s
    } else {
        let expected = e2e::expected_domains(o);
        let stream_dir = o.dir.join("stream");
        let run_opts = Opts {
            dir: if o.workload == Workload::ScanStream {
                stream_dir
            } else {
                o.dir.clone()
            },
            ..*o
        };
        let run = e2e::run_scan(&run_opts, &expected)?;
        let s = &run.report.completion;
        let traced = shared.records.lock().map_err(|_| "record log poisoned")?;
        let mismatches = run
            .log
            .record_hashes()
            .iter()
            .zip(traced.iter())
            .filter(|(a, b)| a.is_some() && a != b)
            .count();
        let dedup = run.report.archive.map_or(0.0, |a| {
            a.dedup_hits as f64 / (a.dedup_hits + a.blobs_written).max(1) as f64
        });
        let replay = run.report.replay.unwrap_or_default();
        m = m
            .str(
                "digest",
                &run.log
                    .digest()
                    .map(|d| format!("{d:016x}"))
                    .unwrap_or_default(),
            )
            .str("table5", &format!("{:?}", run.report.table5()))
            .str(
                "tables",
                &format!("{:016x}", fnv1a(format!("{:?}", run.tables).as_bytes())),
            )
            .int("items", o.sites as u64)
            .int("attempted", s.total as u64)
            .int("completed", s.completed as u64)
            .int("failed_sites", s.failed as u64)
            .int("divergences", replay.divergences)
            .int("replay_sites", replay.sites)
            .int("record_mismatches", mismatches as u64)
            .boolean("trace_records_ok", mismatches == 0)
            .num("L:core.aggregate_ms", run.aggregate_s * 1e3)
            .num("L:core.compare_tables_ms", 0.0)
            .num(
                "L:openwpm.attempts_per_site",
                s.attempts as f64 / s.total.max(1) as f64,
            )
            .num(
                "L:openwpm.retries",
                s.attempts.saturating_sub((s.completed + s.failed) as u64) as f64,
            )
            .num("L:openwpm.restarts", s.restarts as f64)
            .num("L:archive.dedup_ratio", dedup);
        run.wall_s
    };
    let cache = jsengine::cache().stats();

    let pages = shared.pages.load(Ordering::Relaxed).max(1) as f64;
    let per_page = |n: &str| us(get(n).total_ns) / pages;
    let root = if o.workload == Workload::Compare {
        get("visit")
    } else {
        get("site")
    };
    let roots = root.count.max(1) as f64;
    let compile_ns = get("jsengine.compile.miss").total_ns + get("jsengine.compile.hit").total_ns;
    let visit = get("openwpm.visit");
    let visit_self_us = us(visit.self_ns.saturating_sub(
        get("openwpm.open_page").total_ns + get("jsengine.exec").total_ns + compile_ns,
    )) / visit.count.max(1) as f64;
    let classify_self_us = (us(get("core.scan_site").total_ns)
        - us(visit.total_ns)
        - us(get("jsengine.compile.miss").total_ns))
        / roots;
    let static_scan_s = get("detect.static_scan").total_ns as f64 / 1e9;
    let scanned = shared
        .scanned
        .lock()
        .map_err(|_| "scanned set poisoned")?
        .len() as f64;
    let scripts = shared.rec_scripts.load(Ordering::Relaxed) as f64;
    let unexplained_pct = if root.total_ns == 0 {
        100.0
    } else {
        100.0 * root.self_ns as f64 / root.total_ns as f64
    };
    let requests = shared.blocklist_requests.load(Ordering::Relaxed);
    let count = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64 / pages;

    m = m
        .num("traced_wall_s", traced_wall)
        .num("untraced_wall_s", untraced)
        .int("spans", all.iter().map(|s| s.len() as u64).sum())
        .boolean(
            "coverage_ok",
            unexplained_pct <= MAX_UNEXPLAINED_PCT && root.count > 0,
        )
        .num("L:webgen.materialise_us", mean_us("webgen.materialise"))
        .num("L:webgen.respond_us", mean_us("webgen.respond"))
        .num(
            "L:webgen.blocklist_load_us",
            mean_us("webgen.blocklist_load"),
        )
        .num("L:jsengine.compile.misses", cache.misses as f64)
        .num("L:jsengine.compile.hits", cache.hits as f64)
        .num(
            "L:jsengine.compile_us_per_miss",
            mean_us("jsengine.compile.miss"),
        )
        .num("L:jsengine.exec_us", per_page("jsengine.exec"))
        .num(
            "L:browser.template_build_us",
            mean_us("browser.template_build"),
        )
        .num("L:browser.instantiate_us", mean_us("browser.instantiate"))
        .num("L:browser.page_drop_us", mean_us("browser.page_drop"))
        .num(
            "L:openwpm.install_us.vanilla",
            mean_us("openwpm.install.vanilla"),
        )
        .num(
            "L:openwpm.install_us.honey",
            mean_us("openwpm.install.honey"),
        )
        .num(
            "L:openwpm.install_us.watch",
            mean_us("openwpm.install.watch"),
        )
        .num(
            "L:openwpm.install_us.stealth",
            mean_us("openwpm.install.stealth"),
        )
        .num("L:openwpm.open_page_us", mean_us("openwpm.open_page"))
        .num("L:openwpm.visit_us", mean_us("openwpm.visit"))
        .num("L:openwpm.visit_self_us", visit_self_us)
        .num("L:openwpm.records_per_page.http", count(&shared.rec_http))
        .num(
            "L:openwpm.records_per_page.js_calls",
            count(&shared.rec_js_calls),
        )
        .num(
            "L:openwpm.records_per_page.cookies",
            count(&shared.rec_cookies),
        )
        .num(
            "L:openwpm.records_per_page.scripts",
            count(&shared.rec_scripts),
        )
        .num("L:openwpm.sched_ns_per_item", sched_ns_per_item(o.workers))
        .num(
            "L:openwpm.worker_busy_share",
            root.total_ns as f64 / 1e9 / (o.workers as f64 * traced_wall),
        )
        .num(
            "L:netsim.blocklist_ns_per_request",
            if requests == 0 {
                0.0
            } else {
                get("netsim.blocklist").total_ns as f64 / requests as f64
            },
        )
        .num(
            "L:netsim.blocklist_checks",
            shared.blocklist_checks.load(Ordering::Relaxed) as f64,
        )
        .num(
            "L:detect.static_mb_per_s",
            if static_scan_s > 0.0 {
                shared.scanned_bytes.load(Ordering::Relaxed) as f64 / 1e6 / static_scan_s
            } else {
                0.0
            },
        )
        .num(
            "L:detect.static_us",
            if o.workload == Workload::Compare {
                0.0
            } else {
                per_page("detect.static")
            },
        )
        .num(
            "L:detect.memo_hit_ratio",
            if scripts > 0.0 && o.workload != Workload::Compare {
                1.0 - scanned / scripts
            } else {
                0.0
            },
        )
        .num(
            "L:detect.dynamic_us",
            if o.workload == Workload::Compare {
                0.0
            } else {
                per_page("detect.dynamic")
            },
        )
        .num("L:core.scan_site_us", mean_us("core.scan_site"))
        .num(
            "L:core.classify_self_us",
            if o.workload == Workload::Compare {
                0.0
            } else {
                classify_self_us
            },
        )
        .num("L:archive.encode_us", mean_us("archive.encode"))
        .num("L:archive.append_us", mean_us("archive.append"))
        .num("L:archive.open_ms", archive_open_ms)
        .num("L:archive.read_us", archive_read_us)
        .num(
            "L:obs.trace_overhead_pct",
            100.0 * (traced_wall - untraced) / untraced,
        )
        .num("L:trace.unexplained_pct", unexplained_pct);
    Ok(m.finish())
}
