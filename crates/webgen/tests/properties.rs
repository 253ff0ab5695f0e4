//! Property-based tests for the synthetic population's invariants.

use proplite::{run_cases, Rng};
use webgen::{behaviour, visit_spec, PageKind, Population};

/// Plan generation is total and structurally sound for any seed/rank.
#[test]
fn plans_are_structurally_sound() {
    run_cases(64, 0x3EB6, |rng: &mut Rng| {
        let seed = rng.next_u64();
        let rank = rng.u32_in(0, 5_000);
        let pop = Population::new(5_000, seed);
        let plan = pop.plan(rank);
        assert!(!plan.domain.is_empty());
        assert!(plan.subpage_count <= 3);
        assert!(!plan.categories.is_empty());
        // Site-wide inclusions propagate: front detectors ⊆ subpage set.
        for d in &plan.front.third_party {
            assert!(plan.subpage.third_party.contains(d));
        }
        // Subpage-only detector sites always have a reachable subpage.
        if !plan.front_has_detector() && !plan.subpage.is_empty() {
            assert!(plan.subpage_count >= 1);
        }
        // URLs parse.
        let _ = plan.front_url();
        let _ = plan.subpage_url(0);
    });
}

/// Visit specs always carry at least the generic site script and all
/// scripts have parseable URLs.
#[test]
fn visit_specs_are_well_formed() {
    run_cases(64, 0x3EB7, |rng: &mut Rng| {
        let seed = rng.next_u64();
        let rank = rng.u32_in(0, 2_000);
        let pop = Population::new(2_000, seed);
        let plan = pop.plan(rank);
        for page in [PageKind::Front, PageKind::Subpage(0)] {
            let spec = visit_spec(&plan, page);
            assert!(!spec.scripts.is_empty());
            for s in &spec.scripts {
                assert!(netsim::Url::parse(&s.url).is_some(), "bad url {}", s.url);
                // Every script in the corpus parses in the engine.
                assert!(
                    jsengine::parser::parse(&s.source).is_ok(),
                    "unparseable script at {}",
                    s.url
                );
            }
        }
    });
}

/// Cloaking monotonicity: a flagged client never receives more
/// requests or cookies than an unflagged one for the same visit.
#[test]
fn flagged_clients_never_receive_more() {
    run_cases(64, 0x3EB8, |rng: &mut Rng| {
        let seed = rng.next_u64();
        let rank = rng.u32_in(0, 2_000);
        let run = rng.u32_in(1, 4);
        let pop = Population::new(2_000, seed);
        let plan = pop.plan(rank);
        let human = behaviour::site_response(&plan, run, 0xAAAA, false, false);
        let bot = behaviour::site_response(&plan, run, 0xAAAA, true, false);
        assert!(bot.extra_requests.len() <= human.extra_requests.len());
        assert!(bot.cookies.len() <= human.cookies.len());
        // Escalated bots receive no more than freshly-flagged bots.
        let escalated = behaviour::site_response(&plan, run, 0xAAAA, true, true);
        assert!(escalated.extra_requests.len() <= bot.extra_requests.len() + 1);
    });
}

/// Every typed request URL the responder builds is what parsing its
/// rendered form gives back, with a non-empty lowercase host, for every
/// run and for unflagged, flagged and escalated clients.
#[test]
fn generated_requests_have_valid_urls() {
    run_cases(64, 0x3EB9, |rng: &mut Rng| {
        let seed = rng.next_u64();
        let rank = rng.u32_in(0, 500);
        let pop = Population::new(500, seed);
        let plan = pop.plan(rank);
        for run in 1..=3 {
            for (flagged_now, flagged_before) in [(false, false), (true, false), (true, true)] {
                let resp = behaviour::site_response(&plan, run, 0xBBBB, flagged_now, flagged_before);
                for (url, _) in &resp.extra_requests {
                    let rendered = url.to_string();
                    assert_eq!(netsim::Url::parse(&rendered).as_ref(), Some(url), "{rendered}");
                    assert!(!url.host.is_empty(), "{rendered}");
                    assert_eq!(url.host, url.host.to_ascii_lowercase(), "{rendered}");
                }
                for c in &resp.cookies {
                    assert!(!c.domain.is_empty());
                    assert!(!c.name.is_empty());
                }
            }
        }
    });
}
