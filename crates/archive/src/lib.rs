//! # archive — content-addressed crawl bundle store
//!
//! A *bundle* pins one crawl to disk so it can be re-measured later
//! (Hantke et al.'s *Web Execution Bundles* applied to the simulated
//! crawl): everything a visit served is archived once, keyed by content,
//! and a replayed run re-executes the measurement pipeline from the
//! archive instead of regenerating the web.
//!
//! This crate is the storage layer only — it knows nothing about scans.
//! A bundle is a directory with two append-only files:
//!
//! * `manifest.gar` — one checksummed text line per record: a versioned
//!   header carrying an opaque config payload, one entry per archived
//!   item, and a final commit line. Every line ends with its own FNV-64
//!   checksum, so a torn final write (crawl killed mid-line) is detected
//!   and dropped rather than half-parsed.
//! * `blobs.gar` — the content-addressed store: each body is written at
//!   most once under its FNV-1a 64-bit hash (the same script-identity
//!   hash the corpus statistics use), length-prefixed and self-verifying.
//!
//! Both files are append-only and flushed per record, so a killed crawl
//! leaves a readable prefix plus at most one torn line;
//! [`BundleReader::open`] reports dropped lines instead of failing, and
//! [`BundleWriter::append_to`] cuts the torn line off and continues. A
//! line only counts once its trailing newline is on disk. Higher layers
//! decide what payloads mean and whether an uncommitted bundle is usable.
//!
//! All bookkeeping lands under `archive.*` metrics, which are excluded
//! from the telemetry digest (like `cache.*`): recording a crawl must not
//! perturb its provenance.

#![forbid(unsafe_code)]

use obs::fnv1a;
use std::collections::{HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Bundle on-disk format version. Bump on any incompatible change to the
/// manifest or blob framing; readers refuse other versions with a clear
/// error instead of mis-parsing.
pub const BUNDLE_FORMAT_VERSION: u32 = 2;

/// The manifest's file name inside a bundle directory.
pub const MANIFEST_FILE: &str = "manifest.gar";
const BLOBS_FILE: &str = "blobs.gar";
const MANIFEST_MAGIC: &str = "gullible-bundle";
const BLOBS_MAGIC: &str = "gullible-blobs";

/// Separator between a manifest line's body and its checksum (cannot occur
/// in payloads — [`BundleWriter::append_entry`] rejects it).
const US: char = '\x1f';

fn frame(body: &str) -> String {
    format!("{body}{US}{:016x}", fnv1a(body.as_bytes()))
}

/// The body of a framed line whose checksum verifies. The checksum is
/// compared as text, so it only verifies in the exact form [`frame`]
/// writes: a changed byte anywhere in the line is caught.
fn unframe(line: &str) -> Option<&str> {
    let (body, sum) = line.rsplit_once(US)?;
    (sum == format!("{:016x}", fnv1a(body.as_bytes()))).then_some(body)
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Validate a manifest's header line; returns its config payload and the
/// lines after it.
fn split_header<'t>(text: &'t str, dir: &Path) -> io::Result<(&'t str, &'t str)> {
    let (first, body) = text.split_once('\n').unwrap_or((text, ""));
    let header = unframe(first)
        .ok_or_else(|| invalid(format!("{}: missing or corrupt bundle header", dir.display())))?;
    let (magic, config) = header.split_once(US).unwrap_or((header, ""));
    let version = magic
        .strip_prefix(MANIFEST_MAGIC)
        .map(str::trim)
        .and_then(|v| v.strip_prefix('v'))
        .and_then(|v| v.parse::<u32>().ok())
        .ok_or_else(|| invalid(format!("{}: not a bundle manifest", dir.display())))?;
    if version != BUNDLE_FORMAT_VERSION {
        return Err(invalid(format!(
            "{}: bundle format v{version}, this build reads v{BUNDLE_FORMAT_VERSION} — \
             re-record the bundle with this build",
            dir.display()
        )));
    }
    Ok((config, body))
}

/// A manifest line past the header, as read back.
enum Line<'t> {
    Entry(&'t str),
    Commit(&'t str),
    /// Unterminated, or failing its checksum or framing.
    Bad,
}

/// Classify every line of a manifest body, each with its byte length.
fn manifest_lines(body: &str) -> impl Iterator<Item = (Line<'_>, usize)> {
    body.split_inclusive('\n').map(|raw| {
        let line = match raw.strip_suffix('\n').and_then(unframe).and_then(|b| b.split_once(US)) {
            Some(("s", payload)) => Line::Entry(payload),
            Some(("c", payload)) => Line::Commit(payload),
            _ => Line::Bad,
        };
        (line, raw.len())
    })
}

/// Counters accumulated while writing one bundle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WriteStats {
    /// Manifest entries appended.
    pub entries: u64,
    /// Unique blobs written to the store.
    pub blobs_written: u64,
    /// Bytes of unique blob content written.
    pub blob_bytes: u64,
    /// Blob puts answered by the store without writing (content already
    /// archived) — the dedup count the corpus statistics predict.
    pub dedup_hits: u64,
}

struct BlobWriter {
    file: BufWriter<File>,
    seen: HashSet<u64>,
    written: u64,
    bytes: u64,
    dedup: u64,
}

/// Writes one bundle: create, then [`put_blob`](BundleWriter::put_blob) /
/// [`append_entry`](BundleWriter::append_entry) from any thread, then
/// [`commit`](BundleWriter::commit). Every record is flushed as it is
/// appended, so a killed run leaves a readable (uncommitted) prefix.
pub struct BundleWriter {
    dir: PathBuf,
    manifest: Mutex<BufWriter<File>>,
    blobs: Mutex<BlobWriter>,
    entries: AtomicU64,
}

impl BundleWriter {
    /// Create (or overwrite) the bundle at `dir` with an opaque config
    /// payload in the header. The payload must not contain `\n` or the
    /// checksum separator. The blob store is created first, so a manifest
    /// that exists always has a store next to it.
    pub fn create(dir: impl Into<PathBuf>, config: &str) -> io::Result<BundleWriter> {
        let dir = dir.into();
        check_payload(config)?;
        std::fs::create_dir_all(&dir)?;
        let mut blobs = BufWriter::new(File::create(dir.join(BLOBS_FILE))?);
        writeln!(blobs, "{BLOBS_MAGIC} v{BUNDLE_FORMAT_VERSION}")?;
        blobs.flush()?;
        let mut manifest = BufWriter::new(File::create(dir.join(MANIFEST_FILE))?);
        let header = frame(&format!("{MANIFEST_MAGIC} v{BUNDLE_FORMAT_VERSION}{US}{config}"));
        writeln!(manifest, "{header}")?;
        manifest.flush()?;
        Ok(BundleWriter {
            dir,
            manifest: Mutex::new(manifest),
            blobs: Mutex::new(BlobWriter {
                file: blobs,
                seen: HashSet::new(),
                written: 0,
                bytes: 0,
                dedup: 0,
            }),
            entries: AtomicU64::new(0),
        })
    }

    /// Reopen an existing, uncommitted bundle for appending — the
    /// crash-resume path. A final manifest line that does not verify is the
    /// append a killed run was in the middle of: the manifest is truncated
    /// to the last intact line before it. The blob store is truncated to
    /// its last verifiable record and its content hashes are re-seeded so
    /// dedup keeps working across the restart. Fails with `InvalidData` if
    /// the header is damaged, the recorded config differs from
    /// `expected_config` (resuming under a different configuration would
    /// silently mix experiments), the bundle is already committed, or a
    /// line that does not verify is followed by any other line — damage
    /// inside the durable prefix is corruption, not a tear.
    ///
    /// The returned writer's entry count continues from the surviving
    /// prefix; blob write/dedup counters restart at zero (they describe
    /// this process's work).
    pub fn append_to(dir: impl Into<PathBuf>, expected_config: &str) -> io::Result<BundleWriter> {
        let dir = dir.into();
        let manifest_path = dir.join(MANIFEST_FILE);
        let text = std::fs::read_to_string(&manifest_path).map_err(|e| {
            io::Error::new(e.kind(), format!("{}: {e}", manifest_path.display()))
        })?;
        let (config, body) = split_header(&text, &dir)?;
        if config != expected_config {
            return Err(invalid(format!(
                "{}: bundle was recorded under a different configuration — \
                 refusing to resume into it",
                dir.display()
            )));
        }
        let mut kept_entries = 0u64;
        let mut intact_end = text.len() - body.len();
        let mut lines = manifest_lines(body).enumerate().peekable();
        while let Some((i, (line, len))) = lines.next() {
            match line {
                Line::Entry(_) => kept_entries += 1,
                Line::Commit(_) => {
                    return Err(invalid(format!(
                        "{}: bundle is already committed — refusing to append to a sealed bundle",
                        dir.display()
                    )))
                }
                Line::Bad if lines.peek().is_none() => break,
                Line::Bad => {
                    return Err(invalid(format!(
                        "{}: manifest line {} is corrupt but later lines are intact",
                        dir.display(),
                        i + 2
                    )))
                }
            }
            intact_end += len;
        }
        let mut manifest = OpenOptions::new().read(true).write(true).open(&manifest_path)?;
        manifest.set_len(intact_end as u64)?;
        manifest.seek(SeekFrom::End(0))?;

        // Truncate the blob store to its verified prefix and re-seed the
        // dedup set from it.
        let blobs_path = dir.join(BLOBS_FILE);
        let (blobs, torn, valid_end) = read_blob_records(&blobs_path)?;
        let mut blob_file = OpenOptions::new().read(true).write(true).open(&blobs_path)?;
        if torn {
            blob_file.set_len(valid_end)?;
        }
        blob_file.seek(SeekFrom::End(0))?;

        Ok(BundleWriter {
            dir,
            manifest: Mutex::new(BufWriter::new(manifest)),
            blobs: Mutex::new(BlobWriter {
                file: BufWriter::new(blob_file),
                seen: blobs.keys().copied().collect(),
                written: 0,
                bytes: 0,
                dedup: 0,
            }),
            entries: AtomicU64::new(kept_entries),
        })
    }

    /// Directory this bundle is being written to.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Archive `body` under its FNV-64 content hash, writing it only if
    /// the store has not seen that content yet. Returns the hash.
    pub fn put_blob(&self, body: &str) -> io::Result<u64> {
        let hash = fnv1a(body.as_bytes());
        if obs::prof::recorder_armed() {
            obs::prof::ring_record("blob", format!("{hash:016x} len={}", body.len()));
        }
        let mut w = self.blobs.lock().unwrap();
        if !w.seen.insert(hash) {
            w.dedup += 1;
            obs::add("archive.dedup.hits", 1);
            return Ok(hash);
        }
        writeln!(w.file, "b {hash:016x} {}", body.len())?;
        w.file.write_all(body.as_bytes())?;
        w.file.write_all(b"\n")?;
        w.file.flush()?;
        w.written += 1;
        w.bytes += body.len() as u64;
        obs::add("archive.write.blobs", 1);
        obs::add("archive.write.blob_bytes", body.len() as u64);
        Ok(hash)
    }

    /// Append one opaque entry line (checksummed) to the manifest and
    /// flush it. Entries from worker threads land in completion order;
    /// readers must not rely on file order.
    pub fn append_entry(&self, payload: &str) -> io::Result<()> {
        check_payload(payload)?;
        if obs::prof::recorder_armed() {
            obs::prof::ring_record("entry", format!("len={}", payload.len()));
        }
        let line = frame(&format!("s{US}{payload}"));
        let mut m = self.manifest.lock().unwrap();
        writeln!(m, "{line}")?;
        m.flush()?;
        drop(m);
        self.entries.fetch_add(1, Ordering::Relaxed);
        obs::add("archive.write.entries", 1);
        Ok(())
    }

    /// This writer's counters so far.
    pub fn stats(&self) -> WriteStats {
        let b = self.blobs.lock().unwrap();
        WriteStats {
            entries: self.entries.load(Ordering::Relaxed),
            blobs_written: b.written,
            blob_bytes: b.bytes,
            dedup_hits: b.dedup,
        }
    }

    /// Seal the bundle with a commit payload (run summary, digests). A
    /// reader treats a bundle without a commit line as torn.
    pub fn commit(self, payload: &str) -> io::Result<WriteStats> {
        check_payload(payload)?;
        let stats = self.stats();
        let mut m = self.manifest.into_inner().unwrap();
        writeln!(m, "{}", frame(&format!("c{US}{payload}")))?;
        m.flush()?;
        m.get_ref().sync_all()?;
        let mut file = self.blobs.into_inner().unwrap().file;
        file.flush()?;
        file.get_ref().sync_all()?;
        Ok(stats)
    }
}

fn check_payload(payload: &str) -> io::Result<()> {
    if payload.contains('\n') || payload.contains(US) {
        return Err(invalid(
            "bundle payload must not contain newlines or \\x1f".to_string(),
        ));
    }
    Ok(())
}

/// A bundle read back from disk. Payload semantics belong to the caller;
/// this layer only validates framing, versions and checksums.
#[derive(Debug)]
pub struct BundleReader {
    /// Opaque config payload from the header line.
    pub config: String,
    /// Entry payloads, in file (completion) order.
    pub entries: Vec<String>,
    /// Commit payload; `None` for a torn (uncommitted) bundle.
    pub commit: Option<String>,
    /// Content-addressed blob store: FNV-64 hash → body.
    pub blobs: HashMap<u64, Arc<str>>,
    /// Manifest lines dropped (torn or corrupt) — non-zero means the
    /// recording crawl was killed or the file was damaged.
    pub dropped_lines: usize,
    /// The blob file ended mid-record; everything before the tear was
    /// recovered.
    pub torn_blob_tail: bool,
}

impl BundleReader {
    /// Open and validate the bundle at `dir`. Fails with a clear error on
    /// a missing file or a format-version mismatch; torn tails are
    /// recovered and *counted*, not errors.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<BundleReader> {
        let dir = dir.as_ref();
        let manifest = std::fs::read_to_string(dir.join(MANIFEST_FILE)).map_err(|e| {
            io::Error::new(e.kind(), format!("{}: {e}", dir.join(MANIFEST_FILE).display()))
        })?;
        let (config, body) = split_header(&manifest, dir)?;
        let mut entries = Vec::new();
        let mut commit = None;
        let mut dropped = 0usize;
        for (line, _) in manifest_lines(body) {
            match line {
                Line::Entry(payload) => entries.push(payload.to_string()),
                Line::Commit(payload) => commit = Some(payload.to_string()),
                Line::Bad => {
                    dropped += 1;
                    obs::add("archive.read.dropped_lines", 1);
                }
            }
        }
        obs::add("archive.read.entries", entries.len() as u64);

        let (blobs, torn_blob_tail, _) = read_blob_records(&dir.join(BLOBS_FILE))?;
        obs::add("archive.read.blobs", blobs.len() as u64);
        Ok(BundleReader {
            config: config.to_string(),
            entries,
            commit,
            blobs,
            dropped_lines: dropped,
            torn_blob_tail,
        })
    }

    /// Body for a content hash, if archived.
    pub fn blob(&self, hash: u64) -> Option<Arc<str>> {
        self.blobs.get(&hash).cloned()
    }
}

/// Parse the blob store: `(blobs, torn_tail, valid_end)` where
/// `valid_end` is the byte offset just past the last verified record —
/// the truncation point a crash resume uses.
fn read_blob_records(path: &Path) -> io::Result<(HashMap<u64, Arc<str>>, bool, u64)> {
    let mut bytes = Vec::new();
    File::open(path)
        .map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))?
        .read_to_end(&mut bytes)?;
    let header_end = bytes
        .iter()
        .position(|b| *b == b'\n')
        .ok_or_else(|| invalid(format!("{}: missing blob-store header", path.display())))?;
    let header = std::str::from_utf8(&bytes[..header_end])
        .map_err(|_| invalid(format!("{}: corrupt blob-store header", path.display())))?;
    let version = header
        .strip_prefix(BLOBS_MAGIC)
        .map(str::trim)
        .and_then(|v| v.strip_prefix('v'))
        .and_then(|v| v.parse::<u32>().ok())
        .ok_or_else(|| invalid(format!("{}: not a blob store", path.display())))?;
    if version != BUNDLE_FORMAT_VERSION {
        return Err(invalid(format!(
            "{}: blob-store format v{version}, this build reads v{BUNDLE_FORMAT_VERSION}",
            path.display()
        )));
    }
    let mut blobs = HashMap::new();
    let mut pos = header_end + 1;
    let mut torn = false;
    while pos < bytes.len() {
        // `b <hash16> <len>\n<len bytes>\n` — anything that fails to frame
        // or verify is a torn tail: stop there (later records, if any,
        // were never synced in a consistent state).
        let Some(rel) = bytes[pos..].iter().position(|b| *b == b'\n') else {
            torn = true;
            break;
        };
        let parsed = std::str::from_utf8(&bytes[pos..pos + rel]).ok().and_then(|line| {
            let rest = line.strip_prefix("b ")?;
            let (hash, len) = rest.split_once(' ')?;
            Some((u64::from_str_radix(hash, 16).ok()?, len.parse::<usize>().ok()?))
        });
        let Some((hash, len)) = parsed else {
            torn = true;
            break;
        };
        let body_start = pos + rel + 1;
        let body_end = body_start + len;
        if body_end + 1 > bytes.len() || bytes[body_end] != b'\n' {
            torn = true;
            break;
        }
        let Ok(body) = std::str::from_utf8(&bytes[body_start..body_end]) else {
            torn = true;
            break;
        };
        if fnv1a(body.as_bytes()) != hash {
            torn = true;
            break;
        }
        blobs.insert(hash, Arc::<str>::from(body));
        pos = body_end + 1;
    }
    if torn {
        obs::add("archive.read.torn_blob_tail", 1);
    }
    Ok((blobs, torn, pos as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn tmpdir(tag: &str) -> PathBuf {
        static N: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "gullible-archive-{}-{}-{tag}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_bundle(dir: &Path) -> WriteStats {
        let w = BundleWriter::create(dir, "sites=3").unwrap();
        let h1 = w.put_blob("var a = 1;").unwrap();
        let h2 = w.put_blob("var b = 2;").unwrap();
        let dup = w.put_blob("var a = 1;").unwrap();
        assert_eq!(h1, dup);
        assert_ne!(h1, h2);
        w.append_entry(&format!("site0 {h1:016x}")).unwrap();
        w.append_entry(&format!("site1 {h2:016x}")).unwrap();
        w.append_entry("site2").unwrap();
        w.commit("done=3").unwrap()
    }

    #[test]
    fn roundtrip_entries_blobs_and_commit() {
        let dir = tmpdir("roundtrip");
        let stats = sample_bundle(&dir);
        assert_eq!(stats.entries, 3);
        assert_eq!(stats.blobs_written, 2);
        assert_eq!(stats.dedup_hits, 1);
        assert_eq!(stats.blob_bytes, 20);

        let r = BundleReader::open(&dir).unwrap();
        assert_eq!(r.config, "sites=3");
        assert_eq!(r.entries.len(), 3);
        assert!(r.entries[0].starts_with("site0"));
        assert_eq!(r.commit.as_deref(), Some("done=3"));
        assert_eq!(r.blobs.len(), 2);
        assert_eq!(r.blob(fnv1a(b"var a = 1;")).as_deref(), Some("var a = 1;"));
        assert_eq!(r.dropped_lines, 0);
        assert!(!r.torn_blob_tail);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_manifest_tail_is_dropped_and_counted() {
        let dir = tmpdir("torn-manifest");
        sample_bundle(&dir);
        let path = dir.join(MANIFEST_FILE);
        let contents = std::fs::read_to_string(&path).unwrap();
        // Kill the run mid-write: drop the commit line and half of the
        // last entry line.
        let lines: Vec<&str> = contents.lines().collect();
        let torn_last = &lines[3][..lines[3].len() / 2];
        let torn = format!("{}\n{}\n{}\n{torn_last}", lines[0], lines[1], lines[2]);
        std::fs::write(&path, torn).unwrap();

        let r = BundleReader::open(&dir).unwrap();
        assert_eq!(r.entries.len(), 2, "intact entries survive");
        assert_eq!(r.commit, None, "torn bundle has no commit");
        assert_eq!(r.dropped_lines, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_blob_tail_keeps_verified_prefix() {
        let dir = tmpdir("torn-blobs");
        sample_bundle(&dir);
        let path = dir.join(BLOBS_FILE);
        let bytes = std::fs::read(&path).unwrap();
        // Tear mid-way through the last blob's body.
        std::fs::write(&path, &bytes[..bytes.len() - 4]).unwrap();

        let r = BundleReader::open(&dir).unwrap();
        assert!(r.torn_blob_tail);
        assert_eq!(r.blobs.len(), 1, "first blob still verifies");
        assert!(r.blob(fnv1a(b"var a = 1;")).is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_blob_body_fails_verification() {
        let dir = tmpdir("bitflip");
        sample_bundle(&dir);
        let path = dir.join(BLOBS_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte inside the first blob body (after its header line).
        let first_body = bytes.iter().position(|b| *b == b'\n').unwrap() + 1;
        let second_line = first_body
            + bytes[first_body..].iter().position(|b| *b == b'\n').unwrap()
            + 1;
        bytes[second_line + 2] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();

        let r = BundleReader::open(&dir).unwrap();
        // The flipped blob and everything after it are dropped.
        assert!(r.torn_blob_tail);
        assert_eq!(r.blobs.len(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_mismatch_is_a_clear_error() {
        let dir = tmpdir("version");
        sample_bundle(&dir);
        let path = dir.join(MANIFEST_FILE);
        let contents = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = contents.lines().map(String::from).collect();
        let body = format!("{MANIFEST_MAGIC} v99{US}sites=3");
        lines[0] = frame(&body);
        std::fs::write(&path, lines.join("\n")).unwrap();

        let err = BundleReader::open(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("v99") && msg.contains(&format!("v{BUNDLE_FORMAT_VERSION}")), "{msg}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tampered_header_checksum_is_rejected() {
        let dir = tmpdir("tamper");
        sample_bundle(&dir);
        let path = dir.join(MANIFEST_FILE);
        let mut contents = std::fs::read_to_string(&path).unwrap();
        // Tamper with the config without re-checksumming.
        contents = contents.replacen("sites=3", "sites=4", 1);
        std::fs::write(&path, contents).unwrap();
        let err = BundleReader::open(&dir).unwrap_err();
        assert!(err.to_string().contains("header"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn payloads_with_framing_bytes_are_rejected() {
        let dir = tmpdir("payload");
        let w = BundleWriter::create(&dir, "c").unwrap();
        assert!(w.append_entry("a\nb").is_err());
        assert!(w.append_entry("a\x1fb").is_err());
        assert!(w.append_entry("plain").is_ok());
        w.commit("ok").unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_bundle_is_not_found() {
        let err = BundleReader::open(tmpdir("missing")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn torn_append_then_resume_truncates_and_continues() {
        // The process dies at byte 7 of the third entry's append, or with
        // all of it but the newline on disk: either way the line is torn.
        for keep in [7, usize::MAX] {
            let dir = tmpdir("resume");
            let w = BundleWriter::create(&dir, "c").unwrap();
            w.put_blob("shared body").unwrap();
            w.append_entry("one").unwrap();
            w.append_entry("two").unwrap();
            w.append_entry("three").unwrap();
            drop(w);
            // Cut the last line to `keep` bytes, never past its newline.
            let path = dir.join(MANIFEST_FILE);
            let bytes = std::fs::read(&path).unwrap();
            let newline = bytes.len() - 1;
            let start = bytes[..newline].iter().rposition(|&b| b == b'\n').unwrap() + 1;
            std::fs::write(&path, &bytes[..start + keep.min(newline - start)]).unwrap();

            let r = BundleReader::open(&dir).unwrap();
            assert_eq!(r.entries, vec!["one", "two"], "torn tail must not parse (keep {keep})");
            assert_eq!(r.dropped_lines, 1);

            // Resume: the torn line is cut off, the crawl finishes.
            let w = BundleWriter::append_to(&dir, "c").unwrap();
            let dup = w.put_blob("shared body").unwrap();
            assert_eq!(dup, fnv1a(b"shared body"), "dedup set re-seeded across restart");
            w.append_entry("three").unwrap();
            let stats = w.commit("done").unwrap();
            assert_eq!(stats.entries, 3, "count continues from the surviving prefix");
            assert_eq!(stats.blobs_written, 0);
            assert_eq!(stats.dedup_hits, 1);

            let r = BundleReader::open(&dir).unwrap();
            assert_eq!(r.entries, vec!["one", "two", "three"]);
            assert_eq!(r.dropped_lines, 0);
            assert_eq!(r.commit.as_deref(), Some("done"));
            assert_eq!(r.blobs.len(), 1);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn resume_truncates_torn_blob_tail() {
        let dir = tmpdir("resume-blobs");
        let w = BundleWriter::create(&dir, "c").unwrap();
        w.put_blob("first body").unwrap();
        w.append_entry("one").unwrap();
        w.put_blob("second body cut short").unwrap();
        drop(w);
        // Tear the blob store mid-way through the second body.
        let path = dir.join(BLOBS_FILE);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 6]).unwrap();

        let w = BundleWriter::append_to(&dir, "c").unwrap();
        let h = w.put_blob("fresh body").unwrap();
        w.append_entry("two").unwrap();
        w.commit("done").unwrap();

        let r = BundleReader::open(&dir).unwrap();
        assert!(!r.torn_blob_tail, "resume must have excised the torn record");
        assert_eq!(r.blobs.len(), 2);
        assert!(r.blob(fnv1a(b"first body")).is_some());
        assert!(r.blob(h).is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_rejects_config_mismatch_sealed_and_corrupt_manifests() {
        let dir = tmpdir("resume-guards");
        let w = BundleWriter::create(&dir, "c").unwrap();
        w.append_entry("one").unwrap();
        w.append_entry("two").unwrap();
        drop(w);
        let path = dir.join(MANIFEST_FILE);
        let pristine = std::fs::read_to_string(&path).unwrap();

        let err = BundleWriter::append_to(&dir, "other-config").map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("different configuration"), "{err}");

        // A bad line followed by an intact one is corruption, not a tear,
        // and the file is left as it was.
        let damaged = pristine.replacen("one", "onE", 1);
        std::fs::write(&path, &damaged).unwrap();
        let err = BundleWriter::append_to(&dir, "c").map(|_| ()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("corrupt"), "{err}");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), damaged);

        std::fs::write(&path, &pristine).unwrap();
        BundleWriter::append_to(&dir, "c").unwrap().commit("done").unwrap();
        let err = BundleWriter::append_to(&dir, "c").map(|_| ()).unwrap_err();
        assert!(err.to_string().contains("already committed"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_writers_never_corrupt_the_store() {
        let dir = tmpdir("concurrent");
        let w = BundleWriter::create(&dir, "c").unwrap();
        std::thread::scope(|s| {
            for t in 0..8 {
                let w = &w;
                s.spawn(move || {
                    for i in 0..50 {
                        // Heavy cross-thread duplication: 25 distinct bodies.
                        w.put_blob(&format!("body-{}", i % 25)).unwrap();
                        w.append_entry(&format!("t{t}-e{i}")).unwrap();
                    }
                });
            }
        });
        let stats = w.commit("done").unwrap();
        assert_eq!(stats.entries, 400);
        assert_eq!(stats.blobs_written, 25);
        assert_eq!(stats.dedup_hits, 375);
        let r = BundleReader::open(&dir).unwrap();
        assert_eq!(r.entries.len(), 400);
        assert_eq!(r.blobs.len(), 25);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
