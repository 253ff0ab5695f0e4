//! Crash states built on disk. A streamed scan killed midway leaves only
//! its bundle directory: the header, the entries it had flushed, the blobs
//! of the sites behind them, no commit line, and perhaps a torn last line.
//! These helpers write that state through the public bundle writer from a
//! complete recording, so no crawl code path has to stop early for a test.

// Each test binary that includes this module uses a subset of it.
#![allow(dead_code)]

use std::path::Path;

use archive::{BundleReader, BundleWriter, WriteStats, MANIFEST_FILE};
use gullible::{site_visit, ScanConfig};
use webgen::Population;

/// Write into `dir` the bundle a stream of `cfg` leaves when it is killed
/// once it has flushed ranks `0..k`: the entries of those ranks copied from
/// `complete`, a complete recording of `cfg`, in rank order (one worker's
/// order; for a single-worker recording, its first `k` entries), and only
/// the blobs their sites serve, regenerated from the population. No commit
/// line. With `tear = Some(keep)` the last entry is then cut as in
/// [`cut_manifest`]. Returns the writer's blob statistics.
pub fn crash_state(
    cfg: &ScanConfig,
    complete: &Path,
    dir: &Path,
    k: u32,
    tear: Option<usize>,
) -> WriteStats {
    let reader = BundleReader::open(complete).expect("complete recording");
    let mut entries: Vec<(u32, &String)> = reader
        .entries
        .iter()
        .map(|payload| {
            let rank = payload.split('\x01').next().and_then(|r| r.parse().ok());
            (rank.expect("an entry leads with its rank"), payload)
        })
        .filter(|&(rank, _)| rank < k)
        .collect();
    entries.sort_unstable_by_key(|&(rank, _)| rank);
    assert_eq!(entries.len(), k as usize, "the recording holds every rank below {k}");

    let pop = Population {
        flaky_per_100k: cfg.flaky_sites_per_100k,
        ..Population::new(cfg.n_sites, cfg.seed)
    };
    let writer = BundleWriter::create(dir, &reader.config).expect("create bundle");
    for (rank, payload) in entries {
        // A site's blobs go to disk before its entry, as the recorder
        // writes them.
        for page in site_visit(&pop.plan(rank), true).pages {
            for script in &page.scripts {
                writer.put_blob(&script.source).expect("blob");
            }
            for (_, _, body) in &page.server_resources {
                writer.put_blob(body).expect("blob");
            }
        }
        writer.append_entry(payload).expect("entry");
    }
    let stats = writer.stats();
    drop(writer);
    cut_manifest(dir, k as usize, tear);
    stats
}

/// Cut the manifest in `dir` to its header and first `k` entries; with
/// `tear = Some(keep)` the `k`-th entry keeps only its first `keep` bytes
/// (at most all of it but its newline), as a kill during its append
/// leaves it. A commit line goes with the cut.
pub fn cut_manifest(dir: &Path, k: usize, tear: Option<usize>) {
    let path = dir.join(MANIFEST_FILE);
    let bytes = std::fs::read(&path).expect("manifest");
    let ends = line_ends(&bytes);
    let end = match tear {
        None => ends[k],
        Some(keep) => ends[k - 1] + keep.min(ends[k] - 1 - ends[k - 1]),
    };
    std::fs::write(&path, &bytes[..end]).expect("cut manifest");
}

/// Byte offset just past each manifest line (the header's first).
pub fn line_ends(manifest: &[u8]) -> Vec<usize> {
    manifest.iter().enumerate().filter(|(_, b)| **b == b'\n').map(|(i, _)| i + 1).collect()
}

/// A manifest entry line with its payload rewritten by `edit` and its
/// checksum recomputed, so the line itself verifies.
pub fn reframed(line: &str, edit: &dyn Fn(&str) -> String) -> String {
    let (body, _) = line.rsplit_once('\x1f').unwrap();
    let payload = body.strip_prefix("s\x1f").expect("an entry line");
    let body = format!("s\x1f{}", edit(payload));
    format!("{body}\x1f{:016x}", gullible::obs::fnv1a(body.as_bytes()))
}

/// An entry payload's site recorded as `interrupted`, a status no
/// recorder writes: its attempts, status, record and capture fields
/// (the fifth to eighth) rewritten, the rest kept.
pub fn as_interrupted(payload: &str) -> String {
    let mut fields: Vec<&str> = payload.split('\x01').collect();
    fields[4..8].copy_from_slice(&["0", "interrupted", "", ""]);
    fields.join("\x01")
}
