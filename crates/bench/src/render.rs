//! The crawl-based paper artefacts, one renderer each. A renderer takes the
//! finished [`ScanReport`] or [`CompareReport`] and returns the artefact's
//! whole text block; the artefact's own binary prints it between its
//! banner and footer, and `repro` prints the same blocks from its one scan
//! and one comparison. A block depends only on the report it is given:
//! paper targets are scaled by the report's own population size.

use std::fmt::Write as _;

use gullible::report::{coverage_note, pct, thousands, TextTable};
use gullible::{Client, CompareReport, ScanReport};
use netsim::{CookieParty, ResourceType};
use stats::descriptive::{fmt_pct, pct_change};

/// One of the paper's 100K-population counts scaled to `n_sites` (for
/// side-by-side target columns).
fn scaled(paper_count: u64, n_sites: u32) -> u64 {
    paper_count * n_sites as u64 / 100_000
}

/// Table 5 — number of websites with Selenium detectors (static / dynamic
/// / union, identified vs without false positives).
pub fn table05(report: &ScanReport) -> String {
    let [(si, st), (di, dt), (ui, ut)] = report.table5();
    let n = report.n_sites as u64;
    let mut table = TextTable::new("Table 5 — sites with Selenium detectors (front + subpages)");
    table.header(&["# sites", "static", "dynamic", "union", "paper (static/dynamic/union)"]);
    table.row(&[
        "identified".into(),
        thousands(si as u64),
        thousands(di as u64),
        thousands(ui as u64),
        format!("{}/{}/{} at 100K", 32_694, 19_139, 38_264),
    ]);
    table.row(&[
        "w/o FPs / inconclusive".into(),
        thousands(st as u64),
        thousands(dt as u64),
        thousands(ut as u64),
        format!("{}/{}/{} at 100K", 15_838, 16_762, 18_714),
    ]);
    let mut out = format!("{}\n", table.render());
    let (scripts_total, scripts_unique) = report.script_stats();
    let _ = writeln!(
        out,
        "scripts collected: {} ({} unique; paper: 1,535,306 unique at 100K)",
        thousands(scripts_total),
        thousands(scripts_unique)
    );
    let _ = writeln!(
        out,
        "union w/o FPs = {} of {} sites = {} (paper: 18.7%); scaled paper target ≈ {}",
        thousands(ut as u64),
        thousands(n),
        pct(ut as u64, n),
        thousands(scaled(18_714, report.n_sites)),
    );
    let _ = writeln!(out, "{}", coverage_note(&report.completion));
    out
}

/// Table 6 — sites with scripts probing OpenWPM-specific properties.
pub fn table06(report: &ScanReport) -> String {
    let t6 = report.table6();
    let mut table = TextTable::new("Table 6 — OpenWPM-specific probes by provider");
    table.header(&["provider", "sites", "per property", "paper @100K"]);
    let paper: &[(&str, &str)] = &[
        ("cheqzone.com", "331 (jsInstruments)"),
        ("googlesyndication.com", "14"),
        ("google.com", "9"),
        ("adzouk1tag.com", "2"),
    ];
    for (provider, props) in &t6 {
        let sites: u32 = *props.values().max().unwrap_or(&0);
        let breakdown = props
            .iter()
            .map(|(p, n)| format!("{p}={n}"))
            .collect::<Vec<_>>()
            .join(", ");
        let target = paper
            .iter()
            .find(|(d, _)| d == provider)
            .map(|(_, t)| *t)
            .unwrap_or("-");
        table.row(&[provider.clone(), sites.to_string(), breakdown, target.to_string()]);
    }
    let mut out = format!("{}\n", table.render());
    let total: u32 = t6
        .values()
        .map(|props| *props.values().max().unwrap_or(&0))
        .sum();
    let _ = writeln!(
        out,
        "total sites probing OpenWPM-specific properties: {total} (paper: 356 at 100K, scaled \
         target ≈ {})",
        scaled(356, report.n_sites)
    );
    let _ = writeln!(out, "{}", coverage_note(&report.completion));
    out
}

/// Table 7 — domains hosting third-party detector scripts.
pub fn table07(report: &ScanReport) -> String {
    let t7 = report.table7();
    let total: u32 = t7.iter().map(|(_, n)| n).sum();
    let mut table = TextTable::new("Table 7 — third-party hosting domains (1 inclusion/site)");
    table.header(&["#", "hosting domain", "inclusions", "%", "paper %"]);
    let paper: &[(&str, &str)] = &[
        ("yandex.ru", "18.04%"),
        ("adsafeprotected.com", "10.83%"),
        ("moatads.com", "10.15%"),
        ("webgains.io", "9.81%"),
        ("crazyegg.com", "7.28%"),
        ("intercomcdn.com", "4.98%"),
        ("teads.tv", "4.00%"),
        ("jsdelivr.net", "1.98%"),
        ("mxcdn.net", "1.95%"),
        ("mgid.com", "1.89%"),
    ];
    for (i, (domain, count)) in t7.iter().take(10).enumerate() {
        let paper_pct = paper.iter().find(|(d, _)| d == domain).map(|(_, p)| *p).unwrap_or("-");
        table.row(&[
            (i + 1).to_string(),
            domain.clone(),
            thousands(*count as u64),
            format!("{:.2}%", *count as f64 * 100.0 / total as f64),
            paper_pct.to_string(),
        ]);
    }
    let tail: u32 = t7.iter().skip(10).map(|(_, n)| n).sum();
    table.row(&[
        "11+".into(),
        format!("remaining {} domains", t7.len().saturating_sub(10)),
        thousands(tail as u64),
        format!("{:.1}%", tail as f64 * 100.0 / total as f64),
        "29.1%".into(),
    ]);
    let mut out = format!("{}\n", table.render());
    let (first, third) = report.inclusion_totals();
    let _ = writeln!(
        out,
        "first-party detector scripts: {} | third-party inclusions: {} (paper: 3,867 / 21,325 \
         at 100K)",
        thousands(first as u64),
        thousands(third as u64)
    );
    let _ = writeln!(out, "{}", coverage_note(&report.completion));
    out
}

/// Table 11 — studies measuring webdriver-property access on front pages.
pub fn table11(report: &ScanReport) -> String {
    let front_static = report.count(|front, _| front.static_true);
    let front_dynamic = report.count(|front, _| front.dynamic_true);
    let front_union = report.count(|front, _| front.union_true());
    let n = report.n_sites as u64;
    let mut table = TextTable::new("Table 11 — front-page webdriver detectors across studies");
    table.header(&["study", "when", "analysis", "corpus", "# sites", "%"]);
    table.row_str(&["Jueckstock & Kapravelos [46]", "2019-10", "dynamic", "Alexa 50K", "2,756", "5.51%"]);
    table.row_str(&["Krumnow et al. (the paper)", "2020-07", "combined", "Tranco 100K", "13,989", "13.99%"]);
    table.row_str(&["  — static", "", "static", "", "11,957", "11.96%"]);
    table.row_str(&["  — dynamic", "", "dynamic", "", "12,194", "12.19%"]);
    table.row(&[
        "this reproduction".into(),
        "now".into(),
        "combined".into(),
        format!("synthetic {}", thousands(n)),
        thousands(front_union as u64),
        pct(front_union as u64, n),
    ]);
    table.row(&[
        "  — static".into(),
        "".into(),
        "static".into(),
        "".into(),
        thousands(front_static as u64),
        pct(front_static as u64, n),
    ]);
    table.row(&[
        "  — dynamic".into(),
        "".into(),
        "dynamic".into(),
        "".into(),
        thousands(front_dynamic as u64),
        pct(front_dynamic as u64, n),
    ]);
    format!("{}\n{}\n", table.render(), coverage_note(&report.completion))
}

/// Table 12 / Appx. A — first-party detector origin clusters.
pub fn table12(report: &ScanReport) -> String {
    let t12 = report.table12();
    let mut table = TextTable::new("Table 12 — first-party detector origins by URL pattern");
    table.header(&["origin", "sites", "paper @100K"]);
    let paper: &[(&str, u32)] = &[
        ("Akamai", 1004),
        ("Incapsula", 998),
        ("Unknown", 659),
        ("Cloudflare", 486),
        ("PerimeterX", 134),
        ("SelfBuilt", 586),
    ];
    let mut rows: Vec<(&str, u32)> = t12.iter().map(|(k, v)| (*k, *v)).collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.1));
    for (origin, count) in rows {
        let target = paper.iter().find(|(o, _)| *o == origin).map(|(_, c)| *c).unwrap_or(0);
        table.row(&[
            origin.to_string(),
            thousands(count as u64),
            format!("{} (scaled ≈ {})", target, scaled(target as u64, report.n_sites)),
        ]);
    }
    format!("{}\n{}\n", table.render(), coverage_note(&report.completion))
}

/// Fig. 3 — detectors on front pages vs incl. subpages, per rank bucket.
pub fn figure03(report: &ScanReport) -> String {
    let bucket = (report.n_sites / 20).max(1);
    let mut out = String::new();
    let _ = writeln!(out, "bucket size: {} ranks\n", thousands(bucket as u64));
    let _ = writeln!(out, "{:<14} {:>12} {:>16}", "rank bucket", "front (dyn)", "front+sub (dyn)");
    for (i, counts) in report.rank_buckets(bucket).iter().enumerate() {
        let bar = |n: u32| "#".repeat((n as usize * 40 / bucket.max(1) as usize).min(60));
        let _ = writeln!(
            out,
            "{:<14} {:>12} {:>16}   {}",
            format!("{}..{}", i as u32 * bucket, (i as u32 + 1) * bucket),
            counts[1],
            counts[3],
            bar(counts[3])
        );
    }
    let front = report.count(|front, _| front.dynamic_true);
    let site = report.count(|_, site| site.dynamic_true);
    let _ = writeln!(
        out,
        "\nactive-detector sites: front {} → incl. subpages {} (+{:.0}%; paper: +37%, 14% → 19% \
         union: front {} → {} of {})",
        thousands(front as u64),
        thousands(site as u64),
        (site as f64 / front as f64 - 1.0) * 100.0,
        pct(report.count(|front, _| front.union_true()) as u64, report.n_sites as u64),
        pct(report.count(|_, site| site.union_true()) as u64, report.n_sites as u64),
        thousands(report.n_sites as u64),
    );
    let _ = writeln!(out, "{}", coverage_note(&report.completion));
    out
}

/// Fig. 4 — detectors found on front pages: static vs dynamic, per bucket.
pub fn figure04(report: &ScanReport) -> String {
    let bucket = (report.n_sites / 20).max(1);
    let mut out = String::new();
    let _ = writeln!(out, "bucket size: {} ranks\n", thousands(bucket as u64));
    let _ = writeln!(out, "{:<14} {:>10} {:>10}", "rank bucket", "static", "dynamic");
    for (i, counts) in report.rank_buckets(bucket).iter().enumerate() {
        let _ = writeln!(
            out,
            "{:<14} {:>10} {:>10}   {}",
            format!("{}..{}", i as u32 * bucket, (i as u32 + 1) * bucket),
            counts[0],
            counts[1],
            "#".repeat((counts[1] as usize * 40 / bucket.max(1) as usize).min(60))
        );
    }
    let s = report.count(|front, _| front.static_true);
    let d = report.count(|front, _| front.dynamic_true);
    let u = report.count(|front, _| front.union_true());
    let _ = writeln!(
        out,
        "\nfront pages: static {} dynamic {} union {} (paper: 11,897 / 12,208 / 13,989 at 100K; \
         both methods find similar per-bucket volumes but do not fully overlap)",
        thousands(s as u64),
        thousands(d as u64),
        thousands(u as u64)
    );
    let _ = writeln!(out, "{}", coverage_note(&report.completion));
    out
}

/// Fig. 5 — common categories of sites with detectors.
pub fn figure05(report: &ScanReport) -> String {
    let (first, third) = report.category_tallies();
    let total_first: u32 = first.values().sum();
    let total_third: u32 = third.values().sum();
    let mut table = TextTable::new("Figure 5 — category shares of detector sites");
    table.header(&["category", "third-party %", "first-party %", "paper (3rd / 1st)"]);
    let paper: &[(&str, &str)] = &[
        ("News", "18.4% / 5%"),
        ("Technology", "9% / -"),
        ("Business", "7% / -"),
        ("Shopping", "5% / 16.4%"),
        ("Finance", "3% / 8%"),
        ("Travel", "2% / 7%"),
    ];
    let mut cats: Vec<&str> = third.keys().chain(first.keys()).copied().collect();
    cats.sort();
    cats.dedup();
    let mut rows: Vec<(&str, f64, f64)> = cats
        .iter()
        .map(|c| {
            let t = *third.get(c).unwrap_or(&0) as f64 * 100.0 / total_third.max(1) as f64;
            let f = *first.get(c).unwrap_or(&0) as f64 * 100.0 / total_first.max(1) as f64;
            (*c, t, f)
        })
        .collect();
    rows.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    for (cat, t, f) in rows {
        let p = paper.iter().find(|(c, _)| *c == cat).map(|(_, p)| *p).unwrap_or("-");
        table.row(&[cat.to_string(), format!("{t:.1}%"), format!("{f:.1}%"), p.to_string()]);
    }
    format!(
        "{}\nNews leads third-party inclusions; Shopping leads first-party (the rank switch of \
         Sec. 4.3).\n{}\n",
        table.render(),
        coverage_note(&report.completion)
    )
}

/// Table 8 — comparison of HTTP request resource types, WPM vs WPM_hide.
pub fn table08(report: &CompareReport) -> String {
    let (wpm1, hide1) = &report.runs[0];
    let mut table = TextTable::new("Table 8 — requests by resource type");
    table.header(&["resource type", "WPM (r1)", "WPM_hide (r1)", "Diff r1", "Diff r2", "Diff r3"]);
    let mut rows: Vec<(ResourceType, u64, u64)> = ResourceType::all()
        .iter()
        .map(|rt| (*rt, wpm1.requests_of(*rt), hide1.requests_of(*rt)))
        .collect();
    rows.sort_by(|a, b| {
        let da = pct_change(a.1 as f64, a.2 as f64).abs();
        let db = pct_change(b.1 as f64, b.2 as f64).abs();
        db.partial_cmp(&da).unwrap()
    });
    for (rt, w1, h1) in rows {
        if w1 == 0 && h1 == 0 {
            continue;
        }
        let mut cols = vec![rt.as_str().to_string(), thousands(w1), thousands(h1)];
        for (w, h) in &report.runs {
            cols.push(fmt_pct(pct_change(w.requests_of(rt) as f64, h.requests_of(rt) as f64)));
        }
        table.row(&cols);
    }
    let mut totals = vec![
        "Total".to_string(),
        thousands(wpm1.total_requests()),
        thousands(hide1.total_requests()),
    ];
    for (w, h) in &report.runs {
        totals.push(fmt_pct(pct_change(w.total_requests() as f64, h.total_requests() as f64)));
    }
    table.row(&totals);
    let mut out = format!("{}\n", table.render());
    let _ = writeln!(
        out,
        "csp_report: WPM {} vs WPM_hide {} (paper: 784 vs 188, −76%); WPM failed to install \
         hooks on {} of {} sites (paper: up to 113 of 1,487)",
        wpm1.requests_of(ResourceType::CspReport),
        hide1.requests_of(ResourceType::CspReport),
        wpm1.blocked_sites(),
        report.compare_set.len()
    );
    let _ = writeln!(out, "paper totals r1..r3: +1.91% / +3.37% / +5.32%");
    out
}

/// Table 9 — HTTP requests to ad/tracker resources (EasyList/EasyPrivacy).
pub fn table09(report: &CompareReport) -> String {
    let mut table = TextTable::new("Table 9 — requests matching the blocklists");
    table.header(&["run", "EasyList WPM", "EasyList diff", "EasyPrivacy WPM", "EasyPrivacy diff"]);
    for (i, (wpm, hide)) in report.runs.iter().enumerate() {
        table.row(&[
            format!("r{}", i + 1),
            thousands(wpm.easylist_total()),
            fmt_pct(pct_change(wpm.easylist_total() as f64, hide.easylist_total() as f64)),
            thousands(wpm.easyprivacy_total()),
            fmt_pct(pct_change(wpm.easyprivacy_total() as f64, hide.easyprivacy_total() as f64)),
        ]);
    }
    let mut out = format!("{}\n", table.render());
    for i in 0..report.runs.len() {
        if let Some(w) = report.wilcoxon_trackers(i) {
            let _ = writeln!(
                out,
                "r{}: Wilcoxon signed-rank z = {:.2}, p = {:.2e} ({}significant at 95%)",
                i + 1,
                w.z,
                w.p_value,
                if w.significant_at_95() { "" } else { "not " }
            );
        }
    }
    let _ = writeln!(out, "paper: EasyList diffs +1.64% / +5.64% / +5.81%; p < 0.0001");
    out
}

/// Table 10 — served cookies and tracking cookies, WPM vs WPM_hide.
pub fn table10(report: &CompareReport) -> String {
    let mut table = TextTable::new("Table 10 — cookies per run");
    table.header(&[
        "run",
        "1st-party WPM",
        "diff",
        "3rd-party WPM",
        "diff",
        "tracking WPM",
        "diff",
    ]);
    for (i, (wpm, hide)) in report.runs.iter().enumerate() {
        let w1 = wpm.cookies_of(CookieParty::First);
        let h1 = hide.cookies_of(CookieParty::First);
        let w3 = wpm.cookies_of(CookieParty::Third);
        let h3 = hide.cookies_of(CookieParty::Third);
        let wt = report.tracking_cookies(Client::Wpm, i);
        let ht = report.tracking_cookies(Client::WpmHide, i);
        table.row(&[
            format!("r{}", i + 1),
            thousands(w1),
            fmt_pct(pct_change(w1 as f64, h1 as f64)),
            thousands(w3),
            fmt_pct(pct_change(w3 as f64, h3 as f64)),
            thousands(wt),
            fmt_pct(pct_change(wt as f64, ht as f64)),
        ]);
    }
    let mut out = format!("{}\n", table.render());
    for i in 0..report.runs.len() {
        if let Some(w) = report.wilcoxon_cookies(i) {
            let _ = writeln!(
                out,
                "r{}: per-site cookie counts Wilcoxon z = {:.2}, p = {:.2e}",
                i + 1,
                w.z,
                w.p_value
            );
        }
    }
    let _ = writeln!(
        out,
        "paper diffs: 1st +3.33/+3.06/+4.23%; 3rd +5.05/+7.12/+8.11%; tracking \
         +41.70/+52.13/+59.65%"
    );
    out
}

/// Fig. 6 — per-API call coverage of WPM relative to WPM_hide.
pub fn figure06(report: &CompareReport) -> String {
    let cov = report.coverage(0);
    let mut table = TextTable::new("Figure 6 — API call coverage, run 1");
    table.header(&["symbol", "WPM calls", "WPM_hide calls", "coverage"]);
    let mut rows: Vec<(&String, &(u64, u64))> = cov.iter().collect();
    rows.sort_by_key(|(_, (w, h))| ((*w as f64 / (*h).max(1) as f64) * 1000.0) as u64);
    for (sym, (w, h)) in rows {
        if *h == 0 {
            continue;
        }
        let coverage = *w as f64 * 100.0 / *h as f64;
        table.row(&[
            sym.clone(),
            w.to_string(),
            h.to_string(),
            format!("{coverage:.0}%"),
        ]);
    }
    format!(
        "{}\npaper: coverage gaps up to 37%-points (Screen.availLeft 63%); gaps here come from \
         (a) the racy frame injection losing immediate in-frame accesses and (b) prototype \
         pollution leaving element-level Node methods unwrapped.\n",
        table.render()
    )
}
