//! Property-based tests for URL handling and blocklists.

use netsim::url::{etld1_of, etld1_span};
use netsim::{Blocklist, BlocklistKind, Cookie, CookieParty, HttpRequest, ResourceType, Url};
use proplite::{run_cases, Rng};

/// A random host of 1–3 lowercase labels under `.com`.
fn host(rng: &mut Rng) -> String {
    let labels = rng.usize_in(1, 4);
    let mut parts = Vec::new();
    for _ in 0..labels {
        let first = rng.string_of("abcdefghijklmnopqrstuvwxyz", 1, 1);
        let rest = rng.string_of("abcdefghijklmnopqrstuvwxyz0123456789", 0, 8);
        parts.push(format!("{first}{rest}"));
    }
    format!("{}.com", parts.join("."))
}

/// Display → parse is the identity on well-formed URLs.
#[test]
fn url_roundtrip() {
    run_cases(256, 0x4E51, |rng: &mut Rng| {
        let host = host(rng);
        let segments = rng.usize_in(0, 4);
        let mut path = String::new();
        for _ in 0..segments {
            path.push('/');
            path.push_str(&rng.string_of("abcdefghijklmnopqrstuvwxyz0123456789._-", 0, 10));
        }
        if path.is_empty() {
            path.push('/');
        }
        let query = rng.string_of("abcdefghijklmnopqrstuvwxyz=&0123456789", 0, 12);
        let s = if query.is_empty() {
            format!("https://{host}{path}")
        } else {
            format!("https://{host}{path}?{query}")
        };
        let u = Url::parse(&s).unwrap();
        assert_eq!(u.to_string(), s);
    });
}

/// eTLD+1 is idempotent and a suffix of the host.
#[test]
fn etld1_idempotent_and_suffix() {
    run_cases(256, 0x4E52, |rng: &mut Rng| {
        let host = host(rng);
        let e = etld1_of(&host);
        assert_eq!(etld1_of(&e), e.clone());
        assert!(host.ends_with(&e));
    });
}

/// Subdomains never change the registrable domain.
#[test]
fn subdomains_preserve_etld1() {
    run_cases(256, 0x4E53, |rng: &mut Rng| {
        let host = host(rng);
        let sub = rng.string_of("abcdefghijklmnopqrstuvwxyz", 1, 8);
        assert_eq!(etld1_of(&format!("{sub}.{host}")), etld1_of(&host));
    });
}

/// same_site is an equivalence on hosts of the same registrable domain.
#[test]
fn same_site_equivalence() {
    run_cases(256, 0x4E54, |rng: &mut Rng| {
        let host = host(rng);
        let s1 = rng.string_of("abcdefghijklmnopqrstuvwxyz", 1, 6);
        let s2 = rng.string_of("abcdefghijklmnopqrstuvwxyz", 1, 6);
        let a = Url::parse(&format!("https://{s1}.{host}/")).unwrap();
        let b = Url::parse(&format!("https://{s2}.{host}/x")).unwrap();
        assert!(a.same_site(&b));
        assert!(b.same_site(&a));
        assert!(a.same_site(&a));
    });
}

/// A domain-anchored rule matches the domain and every subdomain, and
/// nothing else from an unrelated apex.
#[test]
fn blocklist_domain_anchor_semantics() {
    run_cases(256, 0x4E55, |rng: &mut Rng| {
        let domain = host(rng);
        let sub = rng.string_of("abcdefghijklmnopqrstuvwxyz", 1, 6);
        let list = Blocklist::parse(BlocklistKind::EasyList, &format!("||{domain}^\n"));
        let req = |h: &str| HttpRequest {
            url: Url::parse(&format!("https://{h}/x")).unwrap(),
            page: Url::parse("https://page.org/").unwrap().into(),
            resource_type: ResourceType::Script,
            method: "GET",
            time_ms: 0,
        };
        assert!(list.matches(&req(&domain)));
        let subdomain = format!("{sub}.{domain}");
        assert!(list.matches(&req(&subdomain)));
        assert!(!list.matches(&req("unrelated-apex.org")));
    });
}

/// Parsing arbitrary text never panics.
#[test]
fn url_parse_total() {
    run_cases(256, 0x4E56, |rng: &mut Rng| {
        let s = rng.any_string(0, 80);
        let _ = Url::parse(&s);
    });
}

/// Blocklist parsing never panics and ignores comments.
#[test]
fn blocklist_parse_total() {
    run_cases(256, 0x4E57, |rng: &mut Rng| {
        let text = rng.string_of("!|abcdefghijklmnopqrstuvwxyz.^/\n ", 0, 200);
        let list = Blocklist::parse(BlocklistKind::EasyPrivacy, &text);
        let _ = list.rule_count();
    });
}

/// Labels for hosts and anchors that hit the matcher's edge cases: mixed
/// case, the superstrings of `domain_anchor_does_not_match_superstrings`,
/// multi-label public suffixes (and `bco.uk`, which ends with `co.uk`
/// without a dot before it) and empty labels.
const LABELS: &[&str] = &[
    "ads", "ADS", "Ads", "notads", "company", "loads", "com", "COM", "safe", "org", "co", "uk",
    "bco", "Co", "UK", "github", "io", "GitHub", "x", "", "com.au", "co.uk",
];

/// 1–4 labels from [`LABELS`], sometimes with a leading or trailing dot.
fn edge_host(rng: &mut Rng) -> String {
    let n = rng.usize_in(1, 5);
    let labels: Vec<&str> = (0..n).map(|_| LABELS[rng.usize_in(0, LABELS.len())]).collect();
    let mut host = labels.join(".");
    if rng.usize_in(0, 8) == 0 {
        host.insert(0, '.');
    }
    if rng.usize_in(0, 8) == 0 {
        host.push('.');
    }
    host
}

/// The allocating eTLD+1 (a lowercase copy, a label vector, a joined
/// result): the oracle for `etld1_span` and `etld1_of`.
fn naive_etld1(host: &str) -> String {
    const MULTI_LABEL_SUFFIXES: &[&str] = &[
        "co.uk", "org.uk", "ac.uk", "gov.uk", "com.au", "net.au", "org.au", "co.jp", "or.jp",
        "com.br", "com.cn", "com.tr", "com.mx", "co.in", "co.kr", "com.ar", "co.za", "com.tw",
        "github.io",
    ];
    let host = host.to_ascii_lowercase();
    let labels: Vec<&str> = host.split('.').collect();
    if labels.len() <= 2 {
        return host;
    }
    for suffix in MULTI_LABEL_SUFFIXES {
        if host.ends_with(suffix) {
            let suffix_labels = suffix.split('.').count();
            if labels.len() > suffix_labels {
                return labels[labels.len() - suffix_labels - 1..].join(".");
            }
            return host;
        }
    }
    labels[labels.len() - 2..].join(".")
}

/// The naive per-rule blocklist loop, with its eTLD+1 clause and a
/// `format!` per domain rule: the oracle for [`Blocklist::matches`].
enum NaiveRule {
    DomainAnchor(String),
    PathSubstring(String),
}

fn naive_parse(text: &str) -> Vec<NaiveRule> {
    let mut rules = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('!') || line.contains("##") {
            continue;
        }
        if let Some(rest) = line.strip_prefix("||") {
            let domain = rest.trim_end_matches('^').to_ascii_lowercase();
            if !domain.is_empty() {
                rules.push(NaiveRule::DomainAnchor(domain));
            }
        } else if line.starts_with('/') {
            rules.push(NaiveRule::PathSubstring(line.to_owned()));
        }
    }
    rules
}

fn naive_matches(rules: &[NaiveRule], req: &HttpRequest) -> bool {
    let host = req.url.host.to_ascii_lowercase();
    let host_etld1 = naive_etld1(&host);
    for rule in rules {
        match rule {
            NaiveRule::DomainAnchor(domain) => {
                if host == *domain
                    || host.ends_with(&format!(".{domain}"))
                    || host_etld1 == *domain
                {
                    return true;
                }
            }
            NaiveRule::PathSubstring(sub) => {
                if req.url.path.contains(sub.as_str()) {
                    return true;
                }
            }
        }
    }
    false
}

/// The borrowed eTLD+1 agrees with the allocating one it replaced, and
/// `etld1_of` is its lowercase copy.
#[test]
fn etld1_span_matches_naive_etld1() {
    run_cases(1024, 0x4E58, |rng: &mut Rng| {
        let host = edge_host(rng);
        let span = etld1_span(&host);
        assert!(host.ends_with(span), "{host:?} -> {span:?}");
        assert_eq!(span.to_ascii_lowercase(), naive_etld1(&host), "{host:?}");
        assert_eq!(etld1_of(&host), naive_etld1(&host), "{host:?}");
    });
}

/// The compiled list answers exactly as the naive per-rule loop, over
/// random list texts and random request hosts and paths. Hosts are built
/// directly, not through `Url::parse`, so they keep their uppercase.
#[test]
fn compiled_blocklist_matches_naive_oracle() {
    run_cases(1024, 0x4E59, |rng: &mut Rng| {
        let mut text = String::new();
        for _ in 0..rng.usize_in(0, 6) {
            match rng.usize_in(0, 6) {
                0 => text.push_str("! comment ||ads.com^"),
                1 => text.push_str(&format!("{}##.ad-banner", edge_host(rng))),
                2 => text.push_str(&format!("/{}", rng.string_of("abcdefs/lot.", 0, 6))),
                _ => {
                    let carets = "^".repeat(rng.usize_in(0, 3));
                    text.push_str(&format!("||{}{carets}", edge_host(rng)));
                }
            }
            text.push_str(if rng.bool() { "\n" } else { "\n  " });
        }
        let list = Blocklist::parse(BlocklistKind::EasyList, &text);
        let rules = naive_parse(&text);
        for _ in 0..8 {
            let sub = if rng.bool() { rng.string_of("wxyzW", 1, 3) + "." } else { String::new() };
            let req = HttpRequest {
                url: Url {
                    scheme: "https".into(),
                    host: sub + &edge_host(rng),
                    path: format!("/{}", rng.string_of("abcdefs/lot.", 0, 12)),
                    query: String::new(),
                },
                page: Url::parse("https://page.org/").unwrap().into(),
                resource_type: ResourceType::Script,
                method: "GET",
                time_ms: 0,
            };
            assert_eq!(
                list.matches(&req),
                naive_matches(&rules, &req),
                "list {text:?}, host {:?}, path {:?}",
                req.url.host,
                req.url.path
            );
        }
    });
}

/// A cookie is first-party exactly when its host and the page share an
/// eTLD+1.
#[test]
fn cookie_party_is_etld1_equality() {
    run_cases(1024, 0x4E5A, |rng: &mut Rng| {
        let domain = edge_host(rng);
        let page_domain = if rng.bool() {
            format!("{}.{}", rng.string_of("wW", 1, 2), etld1_of(&domain).to_ascii_uppercase())
        } else {
            edge_host(rng)
        };
        let cookie = Cookie {
            name: "id".into(),
            value: "v".into(),
            domain,
            page_domain,
            expires_in_s: None,
        };
        let first = etld1_of(&cookie.domain) == etld1_of(&cookie.page_domain);
        assert_eq!(
            cookie.party() == CookieParty::First,
            first,
            "{:?} on {:?}",
            cookie.domain,
            cookie.page_domain
        );
    });
}
