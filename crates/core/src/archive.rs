//! Crawl archive: record a scan into a content-addressed bundle and
//! replay the whole measurement pipeline from it.
//!
//! The paper's worry (Sec. 5) is that recorded data silently diverges
//! from what the browser actually executed; its impact evaluation
//! (Sec. 6.3) hinges on re-running the *same* sites under two client
//! configurations. Following Hantke et al.'s *Web Execution Bundles*,
//! this module pins a crawl to disk:
//!
//! * **Record** — `Scan::new(cfg).record(dir)` (or `.stream_to(dir)`)
//!   runs a scan while a recorder hook archives, per site: every
//!   served script body (deduplicated through the FNV-64 content store),
//!   the page structure (URLs, CSP, dwell, static subresources), the
//!   typed [`VisitOutcome`], the attempt count, and a [`StoreCapture`]
//!   fingerprint of every instrument record the visit produced. Each
//!   entry also carries the visit's metrics delta, so the same bundle is
//!   the crawl's output, its checkpoint and a later replay's input.
//! * **Replay** — `Scan::new(cfg).replay(dir)` re-runs the *entire*
//!   pipeline (jsengine execution, instruments, detect static+dynamic
//!   classification, supervisor fault weather) with `webgen` bypassed:
//!   page content comes from the bundle, not the generator. Every
//!   re-derived outcome is compared field-by-field against the recorded
//!   one; divergences are counted, and the telemetry digest must come
//!   out byte-identical to the recording run's.
//! * **Diff** — [`diff_bundles`] compares two bundles (e.g. a WPM and a
//!   WPM_hide run over the same seed) and reports per-site record
//!   deltas, the Sec. 6.3 comparison pinned to on-disk corpora.
//!
//! All bookkeeping lands in `archive.*` metrics, which are excluded from
//! the telemetry digest — recording must not perturb provenance.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ::archive::{BundleReader, BundleWriter};
use browser::CspPolicy;
use netsim::ResourceType;
use openwpm::{
    CrawlSummary, FailureReason, FaultPlan, PageScript, StoreCapture, VisitOutcome, VisitSpec,
};
use webgen::Category;

use crate::scan::{
    decode_site_record, encode_site_record, join_list, split_list, ScanConfig, SiteScanRecord,
    SiteVisit, StreamStats,
};

// Separators. The bundle layer reserves `\n` and US (`\x1f`); the
// site-record encoding uses RS/GS/FS (`\x1e`..`\x1c`).
// The archive's own nesting levels take the low control characters, which
// cannot occur in generated domains, URLs, script bodies or properties.
const F: char = '\x01'; // between site-entry fields, and before the metrics delta
const PAGE: char = '\x02'; // between pages
const PF: char = '\x03'; // between page fields
const LIST: char = '\x1d'; // between list elements (GS, as elsewhere)
const PAIR: char = '\x1c'; // inside list elements (FS, as elsewhere)

/// Counters describing what one recording run wrote to its bundle;
/// attached to [`ScanReport::archive`](crate::scan::ScanReport::archive).
/// A resumed run counts only its own work: the sites it adopted from the
/// bundle are
/// [`StreamStats::records_replayed`](crate::scan::StreamStats::records_replayed).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArchiveStats {
    /// Sites this run wrote to the bundle (completed + failed).
    pub sites: u64,
    /// Unique script/resource bodies this run added to the blob store.
    pub blobs_written: u64,
    /// Bytes of the unique blob content this run wrote.
    pub blob_bytes: u64,
    /// Blob puts answered by dedup — equals (bodies served − unique
    /// bodies), the corpus-statistics prediction the property test pins.
    pub dedup_hits: u64,
}

/// Counters describing a replay run; attached to
/// [`ScanReport::replay`](crate::scan::ScanReport::replay).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Sites re-measured from the bundle.
    pub sites: u64,
    /// Sites whose re-derived outcome differed in any field from the
    /// recorded one. Zero is the reproducibility guarantee.
    pub divergences: u64,
}

/// The run summary sealed into a bundle's commit line.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CommitInfo {
    pub completed: usize,
    pub failed: usize,
    /// Always 0: a sealed run determined every site. The commit line
    /// keeps the field.
    pub interrupted: usize,
    /// Table 5 of the recording run: (static, dynamic, union) ×
    /// (identified, true).
    pub table5: [(u32, u32); 3],
    /// FNV-64 folded over every site entry's hash in rank order —
    /// order-independent of worker scheduling, sensitive to any byte of
    /// any record. The metrics delta after an entry is not hashed, so the
    /// digest is the same with stats on or off.
    pub records_digest: u64,
    /// Telemetry digest of the recording run at commit time
    /// (`obs::Snapshot::digest`, which excludes `cache.*`/`archive.*`).
    pub telemetry_digest: u64,
    /// Whether metrics were armed when recording; the digest is only
    /// comparable between runs with matching telemetry state.
    pub stats_enabled: bool,
}

impl CommitInfo {
    fn encode(&self) -> String {
        let t = self.table5;
        format!(
            "{}{LIST}{}{LIST}{}{LIST}{},{},{},{},{},{}{LIST}{:016x}{LIST}{:016x}{LIST}{}",
            self.completed,
            self.failed,
            self.interrupted,
            t[0].0,
            t[0].1,
            t[1].0,
            t[1].1,
            t[2].0,
            t[2].1,
            self.records_digest,
            self.telemetry_digest,
            self.stats_enabled as u8
        )
    }

    fn decode(s: &str) -> Option<CommitInfo> {
        let parts: Vec<&str> = s.split(LIST).collect();
        let [completed, failed, interrupted, t5, records, telemetry, stats] = parts.as_slice()
        else {
            return None;
        };
        let t: Vec<u32> = t5.split(',').map(|v| v.parse().ok()).collect::<Option<_>>()?;
        let [a, b, c, d, e, f] = t.as_slice() else { return None };
        Some(CommitInfo {
            completed: completed.parse().ok()?,
            failed: failed.parse().ok()?,
            interrupted: interrupted.parse().ok()?,
            table5: [(*a, *b), (*c, *d), (*e, *f)],
            records_digest: u64::from_str_radix(records, 16).ok()?,
            telemetry_digest: u64::from_str_radix(telemetry, 16).ok()?,
            stats_enabled: *stats == "1",
        })
    }
}

// --- per-visit capture hand-off --------------------------------------------
//
// `scan_site_visit` computes the per-site `StoreCapture` on the worker
// thread; the supervisor invokes `on_complete` on that same thread, inside
// the still-open visit scope, immediately after the final attempt. A
// thread-local cell is therefore a race-free channel from the visit body
// to the recorder/verifier hook without widening every signature in
// between.

thread_local! {
    static CAPTURE: std::cell::Cell<Option<StoreCapture>> =
        const { std::cell::Cell::new(None) };
}

pub(crate) fn stash_capture(c: Option<StoreCapture>) {
    CAPTURE.with(|cell| cell.set(c));
}

pub(crate) fn take_capture() -> Option<StoreCapture> {
    CAPTURE.with(|cell| cell.take())
}

/// Fold per-page captures into one per-site capture: counts add, digests
/// fold in page order.
pub(crate) fn fold_captures(pages: &[StoreCapture]) -> StoreCapture {
    let mut acc = StoreCapture::default();
    let mut digest = String::new();
    for p in pages {
        acc.js_calls += p.js_calls;
        acc.http_requests += p.http_requests;
        acc.http_responses += p.http_responses;
        acc.saved_scripts += p.saved_scripts;
        acc.cookies += p.cookies;
        acc.crawl_history += p.crawl_history;
        acc.malformed_events += p.malformed_events;
        digest.push_str(&format!("{:016x}", p.digest));
    }
    acc.digest = obs::fnv1a(digest.as_bytes());
    acc
}

// --- encodings -------------------------------------------------------------

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// The config-line slots that no experiment varies, with the one value
/// each holds: every scan is a deep, non-interacting scan under
/// the supervisor's constant retry and watchdog policy, and runs to its
/// end (an empty per-run visit `budget`). The writer fills them in and the
/// reader refuses any other value, so the line keeps its nine slots and a
/// bundle made under another setting cannot replay as this one.
fn fixed_slots() -> [(&'static str, String); 5] {
    use openwpm::supervisor::{BASE_BACKOFF_MS, MAX_ATTEMPTS, MAX_BACKOFF_MS, VISIT_TIMEOUT_MS};
    [
        ("subpages", "1".to_string()),
        ("interaction", "0".to_string()),
        ("visit_timeout_ms", VISIT_TIMEOUT_MS.to_string()),
        ("retry", format!("{MAX_ATTEMPTS},{BASE_BACKOFF_MS},{MAX_BACKOFF_MS}")),
        ("budget", String::new()),
    ]
}

fn encode_config(cfg: &ScanConfig) -> String {
    let f = &cfg.faults;
    let [subpages, interact, timeout, retry, budget] = fixed_slots().map(|(_, value)| value);
    [
        cfg.n_sites.to_string(),
        cfg.seed.to_string(),
        subpages,
        interact,
        cfg.flaky_sites_per_100k.to_string(),
        timeout,
        retry,
        format!(
            "{},{},{},{},{},{},{}",
            f.crash_per_mille,
            f.hang_per_mille,
            f.nav_error_per_mille,
            f.tab_crash_per_mille,
            f.http_flaky_per_mille,
            f.flaky_site_boost_pm,
            f.seed
        ),
        budget,
    ]
    .join(&PAIR.to_string())
}

/// Inverse of [`encode_config`]; `workers` stays the replaying caller's
/// choice because results are worker-count independent. A fixed slot
/// holding anything but its one value is an error naming the field.
fn decode_config(s: &str, workers: usize) -> Result<ScanConfig, String> {
    let corrupt = || "corrupt config payload".to_string();
    let parts: Vec<&str> = s.split(PAIR).collect();
    let [n_sites, seed, subpages, interact, flaky, timeout, retry, faults, budget] =
        parts.as_slice()
    else {
        return Err(corrupt());
    };
    let fixed = [subpages, interact, timeout, retry, budget];
    for ((field, value), got) in fixed_slots().iter().zip(fixed) {
        if got != value {
            return Err(format!("config field {field} is {got:?}; every scan runs {value:?}"));
        }
    }
    let decode = || {
        let fp: Vec<u64> = faults.split(',').map(|v| v.parse().ok()).collect::<Option<_>>()?;
        let [crash, hang, nav, tab, http, boost, fseed] = fp.as_slice() else { return None };
        Some(ScanConfig {
            n_sites: n_sites.parse().ok()?,
            seed: seed.parse().ok()?,
            workers,
            faults: FaultPlan {
                crash_per_mille: *crash as u32,
                hang_per_mille: *hang as u32,
                nav_error_per_mille: *nav as u32,
                tab_crash_per_mille: *tab as u32,
                http_flaky_per_mille: *http as u32,
                flaky_site_boost_pm: *boost as u32,
                seed: *fseed,
            },
            flaky_sites_per_100k: flaky.parse().ok()?,
        })
    };
    decode().ok_or_else(corrupt)
}

/// Encode one page's served content, archiving every body as a blob.
fn encode_page(spec: &VisitSpec, writer: &BundleWriter) -> io::Result<String> {
    let mut scripts = Vec::with_capacity(spec.scripts.len());
    for s in &spec.scripts {
        let hash = writer.put_blob(&s.source)?;
        scripts.push(format!("{}{PAIR}{}{PAIR}{hash:016x}", s.url, s.content_type));
    }
    let mut server = Vec::with_capacity(spec.server_resources.len());
    for (url, ct, body) in &spec.server_resources {
        let hash = writer.put_blob(body)?;
        server.push(format!("{url}{PAIR}{ct}{PAIR}{hash:016x}"));
    }
    let statics = join_list(&spec.static_requests, |(url, rt)| {
        format!("{url}{PAIR}{}", rt.as_str())
    });
    Ok([
        spec.url.clone(),
        spec.dwell_override_s.map(|d| d.to_string()).unwrap_or_default(),
        spec.csp.as_ref().map(CspPolicy::encode).unwrap_or_default(),
        scripts.join(&LIST.to_string()),
        server.join(&LIST.to_string()),
        statics,
    ]
    .join(&PF.to_string()))
}

/// Inverse of [`encode_page`], resolving bodies from the blob store.
fn decode_page(s: &str, reader: &BundleReader) -> Option<VisitSpec> {
    let parts: Vec<&str> = s.split(PF).collect();
    let [url, dwell, csp, scripts, server, statics] = parts.as_slice() else {
        return None;
    };
    let mut spec = VisitSpec {
        url: url.to_string(),
        ..VisitSpec::default()
    };
    if !dwell.is_empty() {
        spec.dwell_override_s = Some(dwell.parse().ok()?);
    }
    if !csp.is_empty() {
        spec.csp = Some(CspPolicy::decode(csp)?);
    }
    for entry in split_list(scripts) {
        let f: Vec<&str> = entry.split(PAIR).collect();
        let [su, ct, hash] = f.as_slice() else { return None };
        let body = reader.blob(u64::from_str_radix(hash, 16).ok()?)?;
        spec.scripts.push(PageScript {
            url: su.to_string(),
            source: body,
            content_type: ct.to_string(),
        });
    }
    for entry in split_list(server) {
        let f: Vec<&str> = entry.split(PAIR).collect();
        let [su, ct, hash] = f.as_slice() else { return None };
        let body = reader.blob(u64::from_str_radix(hash, 16).ok()?)?;
        spec.server_resources.push((su.to_string(), ct.to_string(), body.to_string()));
    }
    for entry in split_list(statics) {
        let (su, rt) = entry.split_once(PAIR)?;
        spec.static_requests.push((su.to_string(), ResourceType::parse(rt)?));
    }
    Some(spec)
}

/// The four result fields shared by the recorder (what gets written) and
/// the verifier (what the replayed outcome is compared against):
/// `attempts F status F payload F capture`.
fn result_fields(
    outcome: &VisitOutcome<SiteScanRecord>,
    attempts: u32,
    capture: Option<StoreCapture>,
) -> String {
    let (status, payload, cap) = match outcome {
        VisitOutcome::Completed(rec) => (
            "ok",
            encode_site_record(rec),
            capture.unwrap_or_default().encode(),
        ),
        VisitOutcome::Failed { reason, .. } => {
            ("failed", reason.as_str().to_string(), String::new())
        }
        VisitOutcome::Interrupted => ("interrupted", String::new(), String::new()),
    };
    format!("{attempts}{F}{status}{F}{payload}{F}{cap}")
}

// --- recording -------------------------------------------------------------

struct StreamState {
    line_hashes: Vec<Option<u64>>,
    flushed: u64,
}

/// Crash-consistent incremental recorder: each determined visit is
/// appended to the bundle manifest as one checksummed line, `entry F
/// delta`, where `delta` is the visit's registry-metrics delta. At every
/// instant the durable state is `intact lines + (maybe) one torn tail`,
/// and the manifest is the checkpoint: [`StreamRecorder::resume`] adopts
/// every intact line. Worker threads flush concurrently; appends are
/// serialised with the line-hash bookkeeping. Its hook runs on worker
/// threads and has no error path, so I/O errors are latched and surfaced
/// at [`StreamRecorder::finish`]. Locks recover from poisoning
/// (`into_inner`) because a panicking worker unwinds through them, and
/// the lines already on disk stay a valid checkpoint.
pub(crate) struct StreamRecorder {
    writer: BundleWriter,
    state: Mutex<StreamState>,
    err: Mutex<Option<io::Error>>,
}

/// One site a resumed sink adopts from its bundle instead of re-visiting.
pub(crate) struct Adopted {
    pub(crate) rank: u32,
    pub(crate) attempts: u32,
    pub(crate) outcome: VisitOutcome<SiteScanRecord>,
    /// The visit's registry-metrics delta, re-applied on adoption.
    pub(crate) delta: String,
}

impl StreamRecorder {
    pub(crate) fn create(dir: &Path, cfg: &ScanConfig) -> io::Result<StreamRecorder> {
        let writer = BundleWriter::create(dir, &encode_config(cfg))?;
        Ok(Self::with_writer(writer, vec![None; cfg.n_sites as usize]))
    }

    /// Reopen the partial bundle at `dir` for appending and adopt every
    /// site it holds. Returns the recorder (with the adopted entries'
    /// hashes pre-seeded, so the commit digest covers them), the adopted
    /// sites in manifest order, and how many torn tail lines were cut off
    /// (0 or 1). A sealed bundle, another configuration, damage before the
    /// last line, and an intact line that does not decode are all
    /// `InvalidData` errors.
    pub(crate) fn resume(
        dir: &Path,
        cfg: &ScanConfig,
    ) -> io::Result<(StreamRecorder, Vec<Adopted>, u64)> {
        let reader = BundleReader::open(dir)?;
        let writer = BundleWriter::append_to(dir, &encode_config(cfg))?;
        let n = cfg.n_sites as usize;
        let mut line_hashes = vec![None; n];
        let mut adopted = Vec::with_capacity(reader.entries.len());
        for (i, payload) in reader.entries.iter().enumerate() {
            let (hash, site) = adopt(payload, &reader, n).ok_or_else(|| {
                invalid(format!("{}: manifest entry {} does not decode", dir.display(), i + 1))
            })?;
            if line_hashes[site.rank as usize].replace(hash).is_some() {
                return Err(invalid(format!(
                    "{}: manifest holds two entries for rank {}",
                    dir.display(),
                    site.rank
                )));
            }
            adopted.push(site);
        }
        let recorder = Self::with_writer(writer, line_hashes);
        Ok((recorder, adopted, reader.dropped_lines as u64))
    }

    fn with_writer(writer: BundleWriter, line_hashes: Vec<Option<u64>>) -> StreamRecorder {
        StreamRecorder {
            writer,
            state: Mutex::new(StreamState { line_hashes, flushed: 0 }),
            err: Mutex::new(None),
        }
    }

    /// Durably persist one determined visit of the pages in `visit` (the
    /// completion hook).
    pub(crate) fn flush(
        &self,
        rank: u32,
        visit: &SiteVisit,
        outcome: &VisitOutcome<SiteScanRecord>,
        attempts: u32,
        delta: &str,
        capture: Option<StoreCapture>,
    ) {
        if let Err(e) = self.try_flush(rank, visit, outcome, attempts, delta, capture) {
            self.err
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .get_or_insert(e);
        }
    }

    fn try_flush(
        &self,
        rank: u32,
        visit: &SiteVisit,
        outcome: &VisitOutcome<SiteScanRecord>,
        attempts: u32,
        delta: &str,
        capture: Option<StoreCapture>,
    ) -> io::Result<()> {
        let _flush_ph = obs::prof::enter(&obs::prof::ARCHIVE_FLUSH);
        let encode_ph = obs::prof::enter(&obs::prof::ARCHIVE_ENCODE);
        let rf = result_fields(outcome, attempts, capture);
        // Page encoding and blob writes happen outside the serialising
        // lock — the blob store has its own dedup lock.
        let mut pages = Vec::with_capacity(visit.pages.len());
        for spec in &visit.pages {
            pages.push(encode_page(spec, &self.writer)?);
        }
        let entry = format!(
            "{rank}{F}{}{F}{}{F}{}{F}{rf}{F}{}",
            visit.domain,
            join_list(&visit.categories, |c| c.name().to_string()),
            visit.flaky as u8,
            pages.join(&PAGE.to_string())
        );
        let hash = obs::fnv1a(entry.as_bytes());
        let line = format!("{entry}{F}{delta}");
        drop(encode_ph);
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        self.writer.append_entry(&line)?;
        st.line_hashes[rank as usize] = Some(hash);
        st.flushed += 1;
        drop(st);
        obs::add("checkpoint.writes", 1);
        obs::emit(obs::Event::new(0, "checkpoint_write").attr("rank", rank as usize));
        Ok(())
    }

    /// Seal the bundle: every rank was flushed by this run or adopted from
    /// the bundle it resumed. Records this run's flush count in `stats`
    /// and returns what this run wrote. A rank with neither is an
    /// `InvalidData` error naming it, and the bundle stays unsealed.
    pub(crate) fn finish(
        self,
        completion: &CrawlSummary,
        table5: [(u32, u32); 3],
        telemetry: &obs::Telemetry,
        stats: &mut StreamStats,
    ) -> io::Result<ArchiveStats> {
        if let Some(e) = self.err.into_inner().unwrap_or_else(|e| e.into_inner()) {
            return Err(e);
        }
        let st = self.state.into_inner().unwrap_or_else(|e| e.into_inner());
        stats.records_flushed = st.flushed;
        if let Some(rank) = st.line_hashes.iter().position(Option::is_none) {
            return Err(invalid(format!(
                "{}: rank {rank} was neither flushed nor adopted — refusing to seal",
                self.writer.dir().display()
            )));
        }
        let mut digest = String::new();
        for h in st.line_hashes.iter().flatten() {
            digest.push_str(&format!("{h:016x}"));
        }
        let info = CommitInfo {
            completed: completion.completed,
            failed: completion.failed,
            interrupted: completion.interrupted,
            table5,
            records_digest: obs::fnv1a(digest.as_bytes()),
            telemetry_digest: telemetry.registry().snapshot().digest(),
            stats_enabled: telemetry.stats_enabled(),
        };
        let w = self.writer.commit(&info.encode())?;
        Ok(ArchiveStats {
            sites: st.flushed,
            blobs_written: w.blobs_written,
            blob_bytes: w.blob_bytes,
            dedup_hits: w.dedup_hits,
        })
    }
}

/// Decode one intact manifest line of a partial bundle: the entry's hash
/// and the site it records. `None` if the entry or its delta does not
/// decode, the rank is out of range, or the status is not one a recorder
/// writes.
fn adopt(payload: &str, reader: &BundleReader, n_sites: usize) -> Option<(u64, Adopted)> {
    let (entry, delta) = split_delta(payload)?;
    obs::ScopeMetrics::decode(delta)?;
    let (rank, site) = decode_entry(entry, reader)?;
    if rank as usize >= n_sites {
        return None;
    }
    let attempts = site.attempts.parse().ok()?;
    let outcome = match site.status.as_str() {
        "ok" => VisitOutcome::Completed(decode_site_record(&site.payload)?),
        "failed" => VisitOutcome::Failed { reason: FailureReason::parse(&site.payload)?, attempts },
        _ => return None,
    };
    let adopted = Adopted { rank, attempts, outcome, delta: delta.to_string() };
    Some((obs::fnv1a(entry.as_bytes()), adopted))
}

/// Split a manifest payload into its site entry and the visit's metrics
/// delta (which never contains `F`).
fn split_delta(payload: &str) -> Option<(&str, &str)> {
    payload.rsplit_once(F)
}

// --- replay ----------------------------------------------------------------

/// One site as recorded in a bundle.
#[derive(Debug)]
pub(crate) struct ReplaySite {
    pub(crate) visit: SiteVisit,
    /// Raw result fields, kept verbatim for exact divergence comparison.
    attempts: String,
    status: String,
    payload: String,
    capture: String,
    /// Raw page encoding, for cheap bundle-to-bundle comparison.
    pages_enc: String,
}

impl ReplaySite {
    fn result_fields(&self) -> String {
        format!(
            "{}{F}{}{F}{}{F}{}",
            self.attempts, self.status, self.payload, self.capture
        )
    }

    pub(crate) fn capture(&self) -> Option<StoreCapture> {
        (self.status == "ok").then(|| StoreCapture::decode(&self.capture)).flatten()
    }
}

fn decode_entry(payload: &str, reader: &BundleReader) -> Option<(u32, ReplaySite)> {
    let parts: Vec<&str> = payload.split(F).collect();
    let [rank, domain, cats, flaky, attempts, status, result, capture, pages_enc] =
        parts.as_slice()
    else {
        return None;
    };
    let rank: u32 = rank.parse().ok()?;
    let categories: Vec<Category> = split_list(cats)
        .into_iter()
        .map(Category::from_name)
        .collect::<Option<_>>()?;
    let _: u32 = attempts.parse().ok()?;
    match *status {
        "ok" => {
            decode_site_record(result)?;
            StoreCapture::decode(capture)?;
        }
        "failed" => {
            FailureReason::parse(result)?;
        }
        // No recorder writes any other status (`interrupted` included).
        _ => return None,
    }
    let pages: Vec<VisitSpec> = if pages_enc.is_empty() {
        Vec::new()
    } else {
        pages_enc
            .split(PAGE)
            .map(|p| decode_page(p, reader))
            .collect::<Option<_>>()?
    };
    Some((
        rank,
        ReplaySite {
            visit: SiteVisit {
                rank,
                domain: domain.to_string(),
                categories,
                flaky: *flaky == "1",
                pages,
            },
            attempts: attempts.to_string(),
            status: status.to_string(),
            payload: result.to_string(),
            capture: capture.to_string(),
            pages_enc: pages_enc.to_string(),
        },
    ))
}

/// A committed bundle opened for replay or diffing: the recorded scan
/// configuration, every site's served pages and recorded outcome, and the
/// sealed [`CommitInfo`].
#[derive(Debug)]
pub struct ReplayBundle {
    cfg: ScanConfig,
    pub(crate) sites: Vec<ReplaySite>,
    pub commit: CommitInfo,
}

impl ReplayBundle {
    /// Open and fully validate the bundle at `dir`. Fails with a clear
    /// error on a missing/torn/uncommitted bundle, a format-version
    /// mismatch, a missing site, a missing blob, or a records-digest
    /// mismatch — a replay must never silently run from a damaged corpus.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<ReplayBundle> {
        let dir = dir.as_ref();
        let reader = BundleReader::open(dir)?;
        let commit = reader
            .commit
            .as_deref()
            .ok_or_else(|| {
                invalid(format!(
                    "{}: bundle has no commit line (recording crawl was killed?) — re-record it",
                    dir.display()
                ))
            })
            .and_then(|c| {
                CommitInfo::decode(c)
                    .ok_or_else(|| invalid(format!("{}: corrupt commit line", dir.display())))
            })?;
        if reader.dropped_lines > 0 || reader.torn_blob_tail {
            return Err(invalid(format!(
                "{}: committed bundle has {} dropped manifest lines (torn blob tail: {}) — \
                 the files were damaged after commit",
                dir.display(),
                reader.dropped_lines,
                reader.torn_blob_tail
            )));
        }
        let cfg = decode_config(&reader.config, 4)
            .map_err(|e| invalid(format!("{}: {e}", dir.display())))?;
        let n = cfg.n_sites as usize;
        // A sealed bundle holds one entry per rank: count them before
        // sizing anything from the config line's `n_sites`.
        if reader.entries.len() != n {
            return Err(invalid(format!(
                "{}: bundle is missing sites: {} entries for n_sites={n}",
                dir.display(),
                reader.entries.len()
            )));
        }
        let mut sites: Vec<Option<ReplaySite>> = (0..n).map(|_| None).collect();
        let mut digest_parts: Vec<Option<String>> = vec![None; n];
        for payload in &reader.entries {
            let decoded = split_delta(payload)
                .and_then(|(entry, _)| Some((entry, decode_entry(entry, &reader)?)));
            let (entry, (rank, site)) = decoded
                .ok_or_else(|| invalid(format!("{}: corrupt site entry", dir.display())))?;
            if rank as usize >= n {
                return Err(invalid(format!(
                    "{}: site entry rank {rank} out of range for n_sites={n}",
                    dir.display()
                )));
            }
            digest_parts[rank as usize] = Some(format!("{:016x}", obs::fnv1a(entry.as_bytes())));
            sites[rank as usize] = Some(site);
        }
        let mut digest = String::new();
        let mut resolved = Vec::with_capacity(n);
        for (rank, site) in sites.into_iter().enumerate() {
            resolved.push(site.ok_or_else(|| {
                invalid(format!("{}: bundle is missing site {rank}", dir.display()))
            })?);
            digest.push_str(digest_parts[rank].as_ref().unwrap());
        }
        if obs::fnv1a(digest.as_bytes()) != commit.records_digest {
            return Err(invalid(format!(
                "{}: records digest mismatch — entries do not match the commit line",
                dir.display()
            )));
        }
        Ok(ReplayBundle { cfg, sites: resolved, commit })
    }

    /// The recorded scan configuration, with `workers` set by the caller
    /// (results are worker-count independent; parallelism is not part of
    /// the recorded experiment).
    pub fn scan_config(&self, workers: usize) -> ScanConfig {
        ScanConfig { workers, ..self.cfg }
    }

    pub fn n_sites(&self) -> u32 {
        self.cfg.n_sites
    }

    pub(crate) fn site(&self, rank: u32) -> &ReplaySite {
        &self.sites[rank as usize]
    }
}

/// Compares replayed outcomes against recorded ones (the completion hook
/// of a replay run).
pub(crate) struct Verifier {
    bundle: Arc<ReplayBundle>,
    sites: AtomicU64,
    divergences: AtomicU64,
}

impl Verifier {
    pub(crate) fn new(bundle: Arc<ReplayBundle>) -> Verifier {
        Verifier { bundle, sites: AtomicU64::new(0), divergences: AtomicU64::new(0) }
    }

    pub(crate) fn check(
        &self,
        rank: usize,
        outcome: &VisitOutcome<SiteScanRecord>,
        attempts: u32,
        capture: Option<StoreCapture>,
    ) {
        self.sites.fetch_add(1, Ordering::Relaxed);
        obs::add("archive.replay.sites", 1);
        let live = result_fields(outcome, attempts, capture);
        let recorded = self.bundle.site(rank as u32).result_fields();
        if live != recorded {
            self.divergences.fetch_add(1, Ordering::Relaxed);
            obs::add("archive.replay.divergences", 1);
            obs::emit(obs::Event::new(0, "archive_replay_divergence").attr("rank", rank));
        }
    }

    pub(crate) fn stats(&self) -> ReplayStats {
        ReplayStats {
            sites: self.sites.load(Ordering::Relaxed),
            divergences: self.divergences.load(Ordering::Relaxed),
        }
    }
}

// --- diffing ---------------------------------------------------------------

/// One site whose records differ between two bundles.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SiteDelta {
    pub rank: u32,
    pub domain: String,
    /// Human-readable field-level differences.
    pub changes: Vec<String>,
}

/// The comparison of two bundles (paper Sec. 6.3: WPM vs WPM_hide runs
/// over the same recorded corpus).
#[derive(Clone, Debug, Default)]
pub struct BundleDiff {
    pub a_commit: CommitInfo,
    pub b_commit: CommitInfo,
    /// The recorded scan configurations differ (expected when diffing an
    /// ablation; suspicious when diffing two same-seed runs).
    pub config_differs: bool,
    pub deltas: Vec<SiteDelta>,
}

impl BundleDiff {
    /// True when the bundles agree site-for-site.
    pub fn is_clean(&self) -> bool {
        self.deltas.is_empty()
    }

    /// Total records in each bundle's capture fingerprints `(a, b)`.
    pub fn record_totals(a: &ReplayBundle, b: &ReplayBundle) -> (u64, u64) {
        let sum = |bundle: &ReplayBundle| {
            bundle.sites.iter().filter_map(|s| s.capture()).map(|c| c.total_records()).sum()
        };
        (sum(a), sum(b))
    }
}

/// Compare two opened bundles site-by-site.
pub fn diff_bundles(a: &ReplayBundle, b: &ReplayBundle) -> BundleDiff {
    let mut diff = BundleDiff {
        a_commit: a.commit,
        b_commit: b.commit,
        config_differs: encode_config(&a.cfg) != encode_config(&b.cfg),
        deltas: Vec::new(),
    };
    let shared = a.sites.len().min(b.sites.len());
    for rank in 0..shared {
        let (sa, sb) = (&a.sites[rank], &b.sites[rank]);
        let mut changes = Vec::new();
        if sa.status != sb.status {
            changes.push(format!("status: {} -> {}", sa.status, sb.status));
        }
        if sa.attempts != sb.attempts {
            changes.push(format!("attempts: {} -> {}", sa.attempts, sb.attempts));
        }
        match (sa.capture(), sb.capture()) {
            (Some(ca), Some(cb)) if ca != cb => {
                for (name, va, vb) in [
                    ("js_calls", ca.js_calls, cb.js_calls),
                    ("http_requests", ca.http_requests, cb.http_requests),
                    ("http_responses", ca.http_responses, cb.http_responses),
                    ("saved_scripts", ca.saved_scripts, cb.saved_scripts),
                    ("cookies", ca.cookies, cb.cookies),
                    ("malformed_events", ca.malformed_events, cb.malformed_events),
                ] {
                    if va != vb {
                        changes.push(format!("records.{name}: {va} -> {vb}"));
                    }
                }
                if ca.digest != cb.digest {
                    changes.push(format!(
                        "records.digest: {:016x} -> {:016x}",
                        ca.digest, cb.digest
                    ));
                }
            }
            _ => {}
        }
        if sa.status == sb.status && sa.payload != sb.payload {
            changes.push("site record fields differ".to_string());
        }
        if sa.pages_enc != sb.pages_enc {
            changes.push("served pages differ".to_string());
        }
        if !changes.is_empty() {
            diff.deltas.push(SiteDelta {
                rank: rank as u32,
                domain: sa.visit.domain.clone(),
                changes,
            });
        }
    }
    for rank in shared..a.sites.len() {
        diff.deltas.push(SiteDelta {
            rank: rank as u32,
            domain: a.sites[rank].visit.domain.clone(),
            changes: vec!["only in first bundle".to_string()],
        });
    }
    for rank in shared..b.sites.len() {
        diff.deltas.push(SiteDelta {
            rank: rank as u32,
            domain: b.sites[rank].visit.domain.clone(),
            changes: vec!["only in second bundle".to_string()],
        });
    }
    diff
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::Scan;

    /// `diff_bundles` names every record-field delta of a completed site:
    /// each capture count, the capture digest and the site record itself.
    #[test]
    fn diff_reports_record_field_deltas() {
        let dir = proplite::TempDir::new("diff-fields");
        Scan::new(ScanConfig::new(6, 2)).record(&dir).run().expect("record");
        let a = ReplayBundle::open(&dir).expect("open a");
        let mut b = ReplayBundle::open(&dir).expect("open b");
        assert!(diff_bundles(&a, &b).is_clean());

        let site = &mut b.sites[3];
        let mut cap = site.capture().expect("site 3 completed");
        cap.js_calls += 1;
        cap.cookies += 2;
        cap.digest ^= 1;
        site.capture = cap.encode();
        site.payload.push('x');
        let diff = diff_bundles(&a, &b);
        assert!(!diff.config_differs);
        assert_eq!(diff.deltas.len(), 1);
        let delta = &diff.deltas[0];
        assert_eq!(delta.rank, 3);
        let names: Vec<&str> =
            delta.changes.iter().map(|c| c.split(':').next().unwrap_or(c)).collect();
        assert_eq!(
            names,
            ["records.js_calls", "records.cookies", "records.digest", "site record fields differ"],
            "{:?}",
            delta.changes
        );
    }

    /// `finish` seals only a bundle holding every rank: with rank 1 of 3
    /// never flushed it names that rank, and the manifest stays unsealed.
    #[test]
    fn finish_refuses_to_seal_with_a_rank_missing() {
        let dir = proplite::TempDir::new("finish");
        let recorder = StreamRecorder::create(&dir, &ScanConfig::new(3, 1)).expect("create");
        let failed = VisitOutcome::Failed { reason: FailureReason::Timeout, attempts: 3 };
        for rank in [0, 2] {
            let visit = SiteVisit {
                rank,
                domain: format!("s{rank}.test"),
                categories: Vec::new(),
                flaky: false,
                pages: Vec::new(),
            };
            recorder.flush(rank, &visit, &failed, 3, "", None);
        }
        let mut stats = StreamStats::default();
        let telemetry = obs::Telemetry::new();
        let err = recorder
            .finish(&CrawlSummary::default(), [(0, 0); 3], &telemetry, &mut stats)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("rank 1 was neither flushed nor adopted"), "{err}");
        assert_eq!(stats.records_flushed, 2);
        let reader = BundleReader::open(&dir).expect("the flushed entries stay readable");
        assert_eq!((reader.entries.len(), reader.commit.as_deref()), (2, None));
    }

    /// Seal a bundle whose config line claims `n_sites` sites, holding a
    /// failed visit of rank 0 flushed `entries` times.
    fn forge_sealed_bundle(dir: &Path, n_sites: u32, entries: usize) {
        let cfg = ScanConfig { n_sites, ..ScanConfig::new(1, 1) };
        let writer = BundleWriter::create(dir, &encode_config(&cfg)).expect("create");
        let recorder = StreamRecorder::with_writer(writer, vec![None]);
        let visit = SiteVisit {
            rank: 0,
            domain: "s0.test".into(),
            categories: Vec::new(),
            flaky: false,
            pages: Vec::new(),
        };
        let failed = VisitOutcome::Failed { reason: FailureReason::Timeout, attempts: 3 };
        for _ in 0..entries {
            recorder.flush(0, &visit, &failed, 3, "", None);
        }
        let telemetry = obs::Telemetry::new();
        let mut stats = StreamStats::default();
        recorder
            .finish(&CrawlSummary::default(), [(0, 0); 3], &telemetry, &mut stats)
            .expect("seal");
    }

    /// A sealed bundle whose config line claims `u32::MAX` sites but that
    /// holds one entry is refused before anything is sized from the claim.
    #[test]
    fn open_refuses_an_n_sites_the_entries_do_not_back() {
        let dir = proplite::TempDir::new("forged-n-sites");
        forge_sealed_bundle(&dir, u32::MAX, 1);
        let err = ReplayBundle::open(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("missing site"), "{err}");
    }

    /// Two entries for one rank are refused, though the commit line's
    /// records digest matches the later one; with one entry the same
    /// bundle opens.
    #[test]
    fn open_refuses_a_rank_recorded_twice() {
        let sound = proplite::TempDir::new("forged-sound");
        forge_sealed_bundle(&sound, 1, 1);
        assert_eq!(ReplayBundle::open(&sound).expect("one entry per rank").n_sites(), 1);
        let dir = proplite::TempDir::new("forged-duplicate");
        forge_sealed_bundle(&dir, 1, 2);
        let err = ReplayBundle::open(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("2 entries for n_sites=1"), "{err}");
    }
}
