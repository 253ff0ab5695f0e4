//! Crawl statistics reporting: the human-readable `[stats]` summary and
//! the machine-readable `[provenance]` footer that every table/figure
//! binary prints next to its coverage line.
//!
//! The provenance footer answers "how was this number produced?" without
//! re-running anything: seed, a hash of the effective configuration, the
//! coverage line, and a digest of the metric snapshot. Two tables with the
//! same footer came from equivalent runs; two that differ did not.

use crate::metrics::{Registry, Snapshot};
use std::fmt::Write as _;
use std::time::Duration;

/// FNV-1a hash over `key=value` pairs — the config hash carried by
/// provenance footers. Order-sensitive by design: callers pass knobs in a
/// fixed order.
pub fn config_hash(pairs: &[(&str, String)]) -> u64 {
    let mut rendered = String::new();
    for (k, v) in pairs {
        let _ = write!(rendered, "{k}={v};");
    }
    crate::fnv1a(rendered.as_bytes())
}

/// One-line machine-readable provenance footer. A snapshot that recorded
/// nothing (stats and trace both off) prints `telemetry=off`: the digest
/// of nothing would only be FNV-1a's offset basis.
pub fn provenance_footer(
    bin: &str,
    seed: u64,
    config: u64,
    snapshot: &Snapshot,
    coverage: Option<&str>,
) -> String {
    let mut out = format!("[provenance] bin={bin} seed={seed} config={config:016x} telemetry=");
    if snapshot.counters.is_empty() && snapshot.histograms.is_empty() {
        out.push_str("off");
    } else {
        let _ = write!(out, "{:016x}", snapshot.digest());
    }
    if let Some(cov) = coverage {
        let _ = write!(out, " coverage=\"{cov}\"");
    }
    out
}

fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.2}s")
    } else {
        format!("{:.1}ms", s * 1000.0)
    }
}

fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.1}ms", us as f64 / 1e3)
    } else {
        format!("{us}us")
    }
}

/// Render the human `[stats]` summary from a registry: wall-clock phase
/// timings with per-phase event rates, retry/restart rates derived from the
/// supervisor counters, per-instrument record counts, and the remaining
/// metrics verbatim.
pub fn render_summary(reg: &Registry) -> String {
    let snap = reg.snapshot();
    let timings = reg.timings();
    let mut out = String::new();

    let total: Duration = timings.iter().map(|(_, d)| *d).sum();
    let events: u64 = snap
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("records."))
        .map(|(_, v)| *v)
        .sum();
    if !timings.is_empty() {
        out.push_str("[stats] phase timings\n");
        for (name, d) in &timings {
            let _ = writeln!(out, "  {name:<28} {:>10}", fmt_duration(*d));
        }
        let _ = writeln!(out, "  {:<28} {:>10}", "total", fmt_duration(total));
        if events > 0 && total.as_secs_f64() > 0.0 {
            let _ = writeln!(
                out,
                "  record events/sec            {:>10.0}",
                events as f64 / total.as_secs_f64()
            );
        }
    }

    let visits = snap.counter("supervisor.visits");
    if visits > 0 {
        out.push_str("[stats] supervision\n");
        let attempts = snap.counter("supervisor.attempts");
        let retries = snap.counter("supervisor.retries");
        let restarts = snap.counter("supervisor.restarts");
        let failed = snap.counter("supervisor.visits.failed");
        let _ = writeln!(
            out,
            "  visits {visits} attempts {attempts} ({:.3} per visit)",
            attempts as f64 / visits as f64
        );
        let _ = writeln!(
            out,
            "  retries {retries} ({:.2}%) restarts {restarts} ({:.2}%) failed {failed} ({:.2}%)",
            retries as f64 * 100.0 / visits as f64,
            restarts as f64 * 100.0 / visits as f64,
            failed as f64 * 100.0 / visits as f64
        );
    }

    let record_counters: Vec<(&String, &u64)> =
        snap.counters.iter().filter(|(k, _)| k.starts_with("records.")).collect();
    if !record_counters.is_empty() {
        out.push_str("[stats] records committed\n");
        for (k, v) in record_counters {
            let _ = writeln!(out, "  {:<28} {v:>10}", &k["records.".len()..]);
        }
    }

    // Phase profile: where a visit's wall clock went, from the prof.*
    // self-time counters and per-phase histograms (digest-excluded).
    let visit_total = snap.histograms.get("prof.visit_us").map(|h| h.sum);
    let prof_selves: Vec<(&String, &u64)> =
        snap.counters.iter().filter(|(k, _)| k.starts_with("prof.self.")).collect();
    if !prof_selves.is_empty() {
        out.push_str("[stats] phase profile (wall clock, digest-excluded)\n");
        for (k, self_us) in prof_selves {
            let name = &k["prof.self.".len()..];
            let hist = snap.histograms.get(&format!("prof.{name}_us"));
            let (count, p50, p99) = hist
                .map(|h| (h.count, h.quantile(0.50), h.quantile(0.99)))
                .unwrap_or_default();
            let share = visit_total
                .filter(|t| *t > 0)
                .map(|t| format!("{:>5.1}%", *self_us as f64 * 100.0 / t as f64))
                .unwrap_or_else(|| "     -".to_string());
            let _ = writeln!(
                out,
                "  {name:<20} n={count:<8} p50={:<9} p99={:<9} self={:<10} {share}",
                fmt_us(p50),
                fmt_us(p99),
                fmt_us(*self_us),
            );
        }
    }

    // Static-matcher effort: scan volume, automaton candidate→confirm
    // funnel, and the verdict-memo hit rate (digest-excluded).
    let match_scripts = snap.counter("match.scripts");
    if match_scripts > 0 {
        out.push_str("[stats] static matcher (digest-excluded)\n");
        let _ = writeln!(
            out,
            "  scripts {match_scripts} bytes {} patterns {}",
            snap.counter("match.bytes"),
            snap.counter("match.patterns"),
        );
        let cand = snap.counter("match.candidate_hits");
        let conf = snap.counter("match.confirmed_hits");
        if cand > 0 {
            let _ = writeln!(
                out,
                "  candidates {cand} confirmed {conf} ({:.1}%)",
                conf as f64 * 100.0 / cand as f64
            );
        }
        let hits = snap.counter("match.memo.hit");
        let misses = snap.counter("match.memo.miss");
        if hits + misses > 0 {
            let _ = writeln!(
                out,
                "  memo hits {hits} misses {misses} ({:.1}% hit rate)",
                hits as f64 * 100.0 / (hits + misses) as f64
            );
        }
    }

    // Latency quantiles for every `*_us` histogram, via
    // `HistogramSnapshot::quantile` (bucket midpoints).
    let latency: Vec<_> = snap.histograms.iter().filter(|(k, _)| k.ends_with("_us")).collect();
    if !latency.is_empty() {
        out.push_str("[stats] latency quantiles\n");
        for (name, h) in latency {
            let _ = writeln!(
                out,
                "  {name:<28} n={:<8} p50={:<9} p90={:<9} p99={}",
                h.count,
                fmt_us(h.quantile(0.50)),
                fmt_us(h.quantile(0.90)),
                fmt_us(h.quantile(0.99)),
            );
        }
    }

    out.push_str("[stats] metrics\n");
    for line in snap.render().lines() {
        let _ = writeln!(out, "  {line}");
    }
    let _ = writeln!(out, "[stats] telemetry digest {:016x}", snap.digest());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_hash_is_order_and_value_sensitive() {
        let a = config_hash(&[("seed", "42".into()), ("sites", "100".into())]);
        let b = config_hash(&[("sites", "100".into()), ("seed", "42".into())]);
        let c = config_hash(&[("seed", "43".into()), ("sites", "100".into())]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, config_hash(&[("seed", "42".into()), ("sites", "100".into())]));
    }

    #[test]
    fn footer_carries_all_fields() {
        let reg = Registry::new();
        reg.add("x", 3);
        let snap = reg.snapshot();
        let f = provenance_footer("table05", 42, 0xabcd, &snap, Some("100/100 sites"));
        assert!(f.starts_with("[provenance] bin=table05 seed=42 config=000000000000abcd"));
        assert!(f.contains(&format!("telemetry={:016x}", snap.digest())));
        assert!(f.ends_with("coverage=\"100/100 sites\""));
    }

    #[test]
    fn footer_of_an_empty_registry_says_off() {
        let f = provenance_footer("table05", 42, 0xabcd, &Registry::new().snapshot(), None);
        assert!(f.ends_with(" telemetry=off"), "{f}");
    }

    #[test]
    fn summary_renders_phase_profile_and_quantiles() {
        let reg = Registry::new();
        reg.observe("prof.visit_us", 1_000);
        reg.add("prof.self.visit", 700);
        reg.observe("prof.jsengine.interp_us", 300);
        reg.add("prof.self.jsengine.interp", 300);
        reg.observe("sched.visit_wall_us", 1_200);
        let s = render_summary(&reg);
        assert!(s.contains("[stats] phase profile"), "{s}");
        assert!(s.contains("jsengine.interp"), "{s}");
        assert!(s.contains("[stats] latency quantiles"), "{s}");
        assert!(s.contains("sched.visit_wall_us"), "{s}");
        assert!(s.contains("p90="), "{s}");
        assert!(s.contains("%"), "phase shares must render: {s}");
    }

    #[test]
    fn summary_renders_static_matcher_section() {
        let reg = Registry::new();
        reg.add("match.scripts", 40);
        reg.add("match.bytes", 12_345);
        reg.add("match.patterns", 6);
        reg.add("match.candidate_hits", 10);
        reg.add("match.confirmed_hits", 5);
        reg.add("match.memo.hit", 30);
        reg.add("match.memo.miss", 10);
        let s = render_summary(&reg);
        assert!(s.contains("[stats] static matcher"), "{s}");
        assert!(s.contains("scripts 40 bytes 12345 patterns 6"), "{s}");
        assert!(s.contains("candidates 10 confirmed 5 (50.0%)"), "{s}");
        assert!(s.contains("memo hits 30 misses 10 (75.0% hit rate)"), "{s}");
        // And none of it reaches the digest.
        assert_eq!(reg.snapshot().digest(), Registry::new().snapshot().digest());
    }

    #[test]
    fn summary_reports_supervision_rates() {
        let reg = Registry::new();
        reg.add("supervisor.visits", 100);
        reg.add("supervisor.attempts", 120);
        reg.add("supervisor.retries", 15);
        reg.add("supervisor.restarts", 5);
        reg.add("records.js_calls", 400);
        reg.record_timing("scan", Duration::from_secs(2));
        let s = render_summary(&reg);
        assert!(s.contains("phase timings"), "{s}");
        assert!(s.contains("1.200 per visit"), "{s}");
        assert!(s.contains("retries 15 (15.00%)"), "{s}");
        assert!(s.contains("js_calls"), "{s}");
        assert!(s.contains("telemetry digest"), "{s}");
    }
}
