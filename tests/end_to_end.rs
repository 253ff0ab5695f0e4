//! Cross-crate end-to-end tests: the full pipeline against the population's
//! ground truth (which the pipeline itself never reads).

use gullible::scan::{Scan, ScanConfig};
use gullible::{run_compare, CompareConfig};
use webgen::Population;

#[test]
fn scan_findings_match_population_ground_truth() {
    let n = 1_200;
    let seed = 2022;
    let pop = Population::new(n, seed);
    let report = Scan::new(ScanConfig { workers: 2, ..ScanConfig::new(n, seed) }).run().expect("scan");
    assert_eq!(report.sites.len(), n as usize);

    let mut missed_reachable = 0;
    let mut false_detections = 0;
    for rank in 0..n {
        let plan = pop.plan(rank);
        let rec = &report.sites[rank as usize];
        let reachable = plan.front_has_detector()
            || (!plan.subpage.is_empty() && plan.subpage_count > 0);
        if reachable && !rec.site.union_true() {
            // Constructed probes behind a strict CSP are invisible to both
            // methods — the only legitimate misses.
            assert!(
                plan.strict_csp,
                "rank {rank} missed without CSP: front={:?} sub={:?}",
                plan.front.third_party, plan.subpage.third_party
            );
            missed_reachable += 1;
        }
        if !plan.site_has_detector() && rec.site.union_true() {
            false_detections += 1;
        }
    }
    assert!(
        missed_reachable <= n / 100,
        "too many missed reachable detector sites: {missed_reachable}"
    );
    assert_eq!(false_detections, 0, "pipeline must not invent detectors");
}

#[test]
fn scan_openwpm_providers_match_assignment() {
    let n = 2_500;
    let seed = 7;
    let pop = Population::new(n, seed);
    let report = Scan::new(ScanConfig { workers: 2, ..ScanConfig::new(n, seed) }).run().expect("scan");
    // Every plan-assigned cheqzone site (plain technique) must be found.
    let t6 = report.table6();
    let planned_cheq = (0..n)
        .filter(|r| {
            pop.plan(*r)
                .openwpm_provider
                .map(|p| p.domain == "cheqzone.com" && !pop.plan(*r).strict_csp)
                .unwrap_or(false)
        })
        .count() as u32;
    let found_cheq = t6
        .get("cheqzone.com")
        .map(|props| *props.values().max().unwrap_or(&0))
        .unwrap_or(0);
    assert!(
        found_cheq >= planned_cheq,
        "cheqzone: found {found_cheq} < planned non-CSP {planned_cheq}"
    );
}

#[test]
fn compare_shape_holds_on_tiny_population() {
    let report = run_compare(CompareConfig { n_sites: 3_000, seed: 5, runs: 2, workers: 2 });
    assert!(!report.compare_set.is_empty());
    for (wpm, hide) in &report.runs {
        // Who wins: the hidden client, on every run.
        assert!(hide.total_requests() >= wpm.total_requests());
        assert!(hide.requests_of(netsim::ResourceType::CspReport) == 0);
    }
}

#[test]
fn scan_report_internal_consistency() {
    let report = Scan::new(ScanConfig { workers: 2, ..ScanConfig::new(600, 3) }).run().expect("scan");
    // Front implies site (cumulative flags).
    for s in &report.sites {
        if s.front.static_true {
            assert!(s.site.static_true, "rank {}", s.rank);
        }
        if s.front.dynamic_true {
            assert!(s.site.dynamic_true, "rank {}", s.rank);
        }
        // identified ⊇ true for both methods.
        if s.site.static_true {
            assert!(s.site.static_identified);
        }
        if s.site.dynamic_true {
            assert!(s.site.dynamic_identified);
        }
    }
    // Bucket series sums to totals.
    let buckets = report.rank_buckets(50);
    let sum: u32 = buckets.iter().map(|b| b[2]).sum();
    assert_eq!(sum, report.count(|_, site| site.static_true));
}

#[test]
fn first_party_inclusions_subset_of_first_party_sites() {
    let n = 2_000;
    let pop = Population::new(n, 9);
    let report = Scan::new(ScanConfig { workers: 2, ..ScanConfig::new(n, 9) }).run().expect("scan");
    for s in &report.sites {
        if !s.first_party_urls.is_empty() {
            let plan = pop.plan(s.rank);
            assert!(
                plan.first_party.is_some(),
                "rank {} reported a first-party detector without one planned: {:?}",
                s.rank,
                s.first_party_urls
            );
        }
    }
}
