//! Turn a [`SitePlan`] into concrete [`VisitSpec`]s: script sources, URLs,
//! CSP — everything the OpenWPM browser needs to actually visit the site.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use browser::CspPolicy;
use detect::corpus;
use netsim::HttpRequest;
use openwpm::{PageScript, VisitSpec};

use crate::providers::FirstPartyOrigin;
use crate::site::SitePlan;

/// Process-wide memo of materialised script bodies, keyed by the generator
/// parameters. Repeat visits of a site (front page, subpages, supervisor
/// retries) and distinct sites served by the same provider all alias one
/// `Arc<str>`, so the jsengine compile cache sees one body per unique
/// generation, not one per visit. Grows without eviction, bounded by the
/// number of unique (generator, parameter) pairs in the population.
fn memo() -> &'static Mutex<HashMap<String, Arc<str>>> {
    static MEMO: OnceLock<Mutex<HashMap<String, Arc<str>>>> = OnceLock::new();
    MEMO.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Look up (or build and remember) one script body. The builder runs
/// outside the lock; a racing first materialisation keeps whichever entry
/// landed first so every caller still shares one allocation.
fn memoised(key: String, build: impl FnOnce() -> String) -> Arc<str> {
    if let Some(hit) = memo().lock().unwrap().get(&key) {
        return hit.clone();
    }
    let built: Arc<str> = Arc::from(build());
    memo().lock().unwrap().entry(key).or_insert(built).clone()
}

/// Number of distinct script bodies materialised so far in this process.
pub fn materialised_bodies() -> usize {
    memo().lock().unwrap().len()
}

/// The page of a site being visited.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PageKind {
    Front,
    /// 0-based subpage index.
    Subpage(u32),
}

/// Build the visit spec for one page of the site.
pub fn visit_spec(plan: &SitePlan, page: PageKind) -> VisitSpec {
    let _ph = obs::prof::enter(&obs::prof::WEBGEN_MATERIALISE);
    let url = match page {
        PageKind::Front => plan.front_url(),
        PageKind::Subpage(i) => plan.subpage_url(i),
    };
    let mut scripts = Vec::new();

    // Every page carries a generic first-party application script.
    scripts.push(PageScript {
        url: format!("https://{}/js/site.js", plan.domain),
        source: memoised("site-js".into(), || {
            "var pageReady = true;\nfunction track(x) { return x; }\ntrack(pageReady);\n"
                .to_owned()
        }),
        content_type: "text/javascript".into(),
    });

    let detectors = match page {
        PageKind::Front => &plan.front,
        PageKind::Subpage(_) => &plan.subpage,
    };
    for (domain, technique) in &detectors.third_party {
        scripts.push(PageScript {
            url: format!("https://{domain}/bd/detect.js"),
            source: memoised(format!("selenium\u{1f}{technique:?}\u{1f}{domain}"), || {
                corpus::selenium_detector(*technique, &format!("https://{domain}/bd/verdict"))
            }),
            content_type: "text/javascript".into(),
        });
    }

    // First-party bot management and OpenWPM-specific detectors run on the
    // front page (and, being site-wide services, on subpages too).
    if let Some(origin) = plan.first_party {
        let path = origin.script_path(plan.site_seed);
        scripts.push(PageScript {
            url: format!("https://{}{}", plan.domain, path),
            source: memoised(format!("first-party\u{1f}{}", plan.domain), || {
                corpus::first_party_detector(&format!("https://{}/bd/fp-verdict", plan.domain))
            }),
            content_type: "text/javascript".into(),
        });
        // PerimeterX-style deep probes also exercise the iframe channel.
        if origin == FirstPartyOrigin::PerimeterX {
            scripts.push(PageScript {
                url: format!("https://{}/px/deep.js", plan.domain),
                source: memoised(format!("iframe-probe\u{1f}{}", plan.domain), || {
                    corpus::iframe_probe_detector(&format!(
                        "https://{}/bd/fp-verdict",
                        plan.domain
                    ))
                }),
                content_type: "text/javascript".into(),
            });
        }
    }
    if let Some(provider) = plan.openwpm_provider {
        scripts.push(PageScript {
            url: format!("https://{}/tag.js", provider.domain),
            source: memoised(format!("openwpm\u{1f}{}", provider.domain), || {
                corpus::openwpm_detector(
                    provider.props,
                    provider.technique,
                    &format!("https://{}/owpm/verdict", provider.domain),
                )
            }),
            content_type: "text/javascript".into(),
        });
    }

    // Front-page-only extras.
    if matches!(page, PageKind::Front) {
        if plan.benign_mention {
            scripts.push(PageScript {
                url: format!("https://{}/js/integrations.js", plan.domain),
                source: memoised("benign-mention".into(), corpus::benign_webdriver_mention),
                content_type: "text/javascript".into(),
            });
        }
        if plan.iterator {
            scripts.push(PageScript {
                url: "https://fpcdn.example/fp.js".into(),
                source: memoised("fp-iterator".into(), || {
                    corpus::fingerprint_iterator("https://fpcdn.example/collect")
                }),
                content_type: "text/javascript".into(),
            });
        }
        // A slice of the web runs canvas fingerprinting — touches
        // instrumented APIs without being a bot detector.
        if plan.site_seed.is_multiple_of(5) {
            scripts.push(PageScript {
                url: "https://fpcdn.example/canvas.js".into(),
                source: memoised("canvas-fp".into(), || {
                    corpus::canvas_fingerprinter("https://fpcdn.example/cv")
                }),
                content_type: "text/javascript".into(),
            });
        }
    }

    VisitSpec {
        url: url.to_string(),
        csp: if plan.strict_csp {
            Some(CspPolicy::strict(&format!("https://{}/csp-report", plan.domain)))
        } else {
            None
        },
        scripts,
        server_resources: Vec::new(),
        static_requests: Vec::new(),
        dwell_override_s: None,
    }
}

/// Did any detector on the page flag the client? (Beacon verdicts carry
/// `bot=1`.)
pub fn verdict_from_traffic(traffic: &[HttpRequest]) -> bool {
    traffic.iter().any(|r| {
        r.resource_type == netsim::ResourceType::Beacon
            && (r.url.query.contains("bot=1") || r.url.query.starts_with("bot=1"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::Population;

    #[test]
    fn front_spec_contains_expected_scripts() {
        let pop = Population::new(100_000, 5);
        // Find a site with a third-party detector.
        let plan = (0..100_000)
            .map(|r| pop.plan(r))
            .find(|p| !p.front.third_party.is_empty())
            .unwrap();
        let spec = visit_spec(&plan, PageKind::Front);
        assert!(spec.url.starts_with("https://"));
        assert!(spec.scripts.iter().any(|s| s.url.ends_with("/bd/detect.js")));
        assert!(spec.scripts.iter().any(|s| s.url.ends_with("/js/site.js")));
    }

    #[test]
    fn first_party_script_url_follows_origin_pattern() {
        let pop = Population::new(100_000, 5);
        let plan = (0..100_000)
            .map(|r| pop.plan(r))
            .find(|p| p.first_party == Some(FirstPartyOrigin::Akamai))
            .unwrap();
        let spec = visit_spec(&plan, PageKind::Front);
        assert!(
            spec.scripts.iter().any(|s| s.url.contains("/akam/11/")),
            "urls: {:?}",
            spec.scripts.iter().map(|s| &s.url).collect::<Vec<_>>()
        );
    }

    #[test]
    fn subpage_spec_uses_subpage_url() {
        let pop = Population::new(1_000, 5);
        let plan = pop.plan(3);
        let spec = visit_spec(&plan, PageKind::Subpage(1));
        assert!(spec.url.contains("/page2.html"));
    }

    #[test]
    fn strict_csp_plans_get_policies() {
        let pop = Population::new(100_000, 5);
        let plan = (0..100_000).map(|r| pop.plan(r)).find(|p| p.strict_csp).unwrap();
        let spec = visit_spec(&plan, PageKind::Front);
        assert!(spec.csp.is_some());
    }

    /// Materialising the same plan twice (or its subpages) must alias the
    /// same body allocations, not rebuild them.
    #[test]
    fn repeated_materialisation_shares_script_bodies() {
        let pop = Population::new(100_000, 5);
        let plan = (0..100_000)
            .map(|r| pop.plan(r))
            .find(|p| !p.front.third_party.is_empty() && p.first_party.is_some())
            .unwrap();
        let a = visit_spec(&plan, PageKind::Front);
        let b = visit_spec(&plan, PageKind::Front);
        assert_eq!(a.scripts.len(), b.scripts.len());
        for (sa, sb) in a.scripts.iter().zip(&b.scripts) {
            assert!(
                Arc::ptr_eq(&sa.source, &sb.source),
                "{} rebuilt instead of memoised",
                sa.url
            );
        }
        assert!(materialised_bodies() >= a.scripts.len());
    }

    #[test]
    fn verdict_parsing() {
        use netsim::{ResourceType, Url};
        let req = |q: &str, rt: ResourceType| HttpRequest {
            url: Url::parse(&format!("https://bd.test/v?{q}")).unwrap(),
            page: Url::parse("https://s.test/").unwrap().into(),
            resource_type: rt,
            method: "POST",
            time_ms: 0,
        };
        assert!(verdict_from_traffic(&[req("bot=1", ResourceType::Beacon)]));
        assert!(!verdict_from_traffic(&[req("bot=0", ResourceType::Beacon)]));
        assert!(!verdict_from_traffic(&[req("bot=1", ResourceType::Image)]));
    }
}
