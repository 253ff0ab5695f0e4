//! Site content generation and adaptive (cloaking) behaviour.
//!
//! Models what the paper's Sec. 6.3 measures: sites serve a deterministic
//! base of resources and cookies, plus an "engagement" layer — ads,
//! retargeting pixels, analytics beacons, tracking cookies — that bot-flagged
//! clients receive *less* of, with sites that re-identify clients
//! escalating the throttling across repeated runs (the effect the paper
//! sees amplify from r1 to r3 in Tables 8–10).
//!
//! Both clients of a comparison see identical shared content for a given
//! `(site, run)`; differences arise only from (a) the site's bot verdict
//! and (b) small client-local rotation noise on volatile resource classes
//! (ad rotation — the `media` row of Table 8 is noisy in the paper too).

use netsim::{Cookie, ResourceType, Url};
use openwpm::SiteResponse;

use crate::site::SitePlan;

/// Where a generated request points.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DomainClass {
    FirstParty,
    Ad,      // matches the EasyList simulacrum
    Tracker, // matches the EasyPrivacy simulacrum
    Benign,  // CDNs and other third parties
}

/// Per-resource-type content parameters, calibrated to Table 8's per-site
/// means over the 1,487 comparison sites, with the withheld (bot-throttled)
/// share set to the r1 Diff column.
struct TypeParams {
    rt: ResourceType,
    /// Mean requests per site visit (millis: 78_200 = 78.2).
    mean_milli: u32,
    /// Share withheld from flagged bots (per mille).
    withhold_pm: u32,
    /// Client-local noise amplitude (per mille of the count).
    noise_pm: u32,
    /// Domain-class distribution (per mille): first, ad, tracker, benign.
    classes: [u32; 4],
}

const CONTENT: &[TypeParams] = &[
    TypeParams { rt: ResourceType::Image, mean_milli: 78_200, withhold_pm: 15, noise_pm: 12, classes: [520, 130, 80, 270] },
    TypeParams { rt: ResourceType::Script, mean_milli: 55_000, withhold_pm: 14, noise_pm: 10, classes: [450, 120, 100, 330] },
    TypeParams { rt: ResourceType::XmlHttpRequest, mean_milli: 39_000, withhold_pm: 46, noise_pm: 15, classes: [420, 160, 280, 140] },
    TypeParams { rt: ResourceType::SubFrame, mean_milli: 10_350, withhold_pm: 13, noise_pm: 15, classes: [250, 500, 50, 200] },
    TypeParams { rt: ResourceType::Stylesheet, mean_milli: 6_690, withhold_pm: 9, noise_pm: 8, classes: [600, 0, 0, 400] },
    TypeParams { rt: ResourceType::Font, mean_milli: 6_460, withhold_pm: 0, noise_pm: 16, classes: [350, 0, 0, 650] },
    TypeParams { rt: ResourceType::ImageSet, mean_milli: 3_850, withhold_pm: 42, noise_pm: 25, classes: [400, 300, 100, 200] },
    TypeParams { rt: ResourceType::Beacon, mean_milli: 3_600, withhold_pm: 101, noise_pm: 25, classes: [50, 150, 750, 50] },
    TypeParams { rt: ResourceType::MainFrame, mean_milli: 1_660, withhold_pm: 0, noise_pm: 30, classes: [900, 0, 0, 100] },
    TypeParams { rt: ResourceType::Media, mean_milli: 360, withhold_pm: 0, noise_pm: 350, classes: [500, 200, 0, 300] },
    TypeParams { rt: ResourceType::WebSocket, mean_milli: 220, withhold_pm: 0, noise_pm: 160, classes: [600, 0, 200, 200] },
    TypeParams { rt: ResourceType::Other, mean_milli: 64, withhold_pm: 0, noise_pm: 300, classes: [700, 0, 0, 300] },
    TypeParams { rt: ResourceType::Object, mean_milli: 34, withhold_pm: 0, noise_pm: 200, classes: [800, 0, 0, 200] },
];

/// Cookie-layer parameters (Table 10 per-site means).
const FIRST_PARTY_COOKIES_MILLI: u32 = 20_000; // 20.0 / site
const THIRD_PARTY_COOKIES_MILLI: u32 = 19_100; // non-tracking third party
const TRACKING_COOKIES_MILLI: u32 = 2_890; // 2.89 / site for humans
const FIRST_PARTY_WITHHOLD_PM: u32 = 33;
const THIRD_PARTY_WITHHOLD_PM: u32 = 52;

/// Escalation factors (per mille) applied to withholding when the site
/// re-identified the client as a bot in an earlier run. Requests escalate
/// faster than cookies (calibrated to the r1→r3 amplification of
/// Tables 8–10: totals +1.9→+5.3%, tracking cookies +42→+60%).
fn request_escalation_pm(run: u32, flagged_before: bool) -> u32 {
    if !flagged_before || run <= 1 {
        1000
    } else {
        1000 + 500 * (run - 1)
    }
}

fn cookie_escalation_pm(run: u32, flagged_before: bool) -> u32 {
    if !flagged_before || run <= 1 {
        1000
    } else {
        1000 + 160 * (run - 1)
    }
}

/// `count × pm / 1000` with probabilistic rounding of the fractional part,
/// so small per-site counts still feel small rates in aggregate.
fn scaled_count(count: u32, pm: u32, h: u64) -> u32 {
    let exact = count as u64 * pm as u64;
    (exact / 1000 + u64::from(h % 1000 < exact % 1000)) as u32
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deterministic count with mean `mean_milli / 1000`: shared across clients
/// for a `(site, run, type)`, plus client-local noise.
fn sample_count(plan: &SitePlan, run: u32, salt: u64, mean_milli: u32, noise_pm: u32, client_tag: u64) -> u32 {
    let shared = splitmix(plan.site_seed ^ (run as u64) << 32 ^ salt);
    let base = mean_milli / 1000;
    let frac = mean_milli % 1000;
    let mut count = base + u32::from((shared % 1000) < frac as u64);
    // Shared site-level variation ±20%.
    let site_var = (shared >> 17) % 400;
    count = (count as u64 * (800 + site_var) / 1000) as u32;
    if noise_pm > 0 && client_tag != 0 {
        // Client-local ad-rotation noise: magnitude drawn in ±noise_pm,
        // applied with probabilistic rounding so small counts jitter too.
        let n = splitmix(plan.site_seed ^ client_tag ^ (run as u64) ^ salt.rotate_left(7));
        let jitter_pm = (n % (2 * noise_pm as u64 + 1)) as i64 - noise_pm as i64;
        let delta = scaled_count(count, jitter_pm.unsigned_abs() as u32, splitmix(n)) as i64;
        count = (count as i64 + if jitter_pm < 0 { -delta } else { delta }).max(0) as u32;
    }
    count
}

/// Ad and tracker host pools (these are what the generated EasyList /
/// EasyPrivacy lists cover — see [`crate::blocklists`]).
pub const AD_DOMAINS: &[&str] = &[
    "adsafeprotected.com",
    "moatads.com",
    "webgains.io",
    "teads.tv",
    "mgid.com",
    "mxcdn.net",
    "doubleclick.example",
    "adnexus.example",
    "popads.example",
    "bannerfarm.example",
];

pub const TRACKER_DOMAINS: &[&str] = &[
    "yandex.ru",
    "crazyegg.com",
    "metrics.example",
    "pixeltrack.example",
    "sessioncam.example",
    "heatmap.example",
    "audiencesync.example",
    "idgraph.example",
];

pub const BENIGN_THIRD_DOMAINS: &[&str] = &[
    "jsdelivr.net",
    "intercomcdn.com",
    "fonts.example",
    "cdnstatic.example",
    "imgcache.example",
];

fn pick_domain(class: DomainClass, plan: &SitePlan, nonce: u64) -> String {
    let idx = (nonce % 97) as usize;
    match class {
        DomainClass::FirstParty => plan.domain.clone(),
        DomainClass::Ad => AD_DOMAINS[idx % AD_DOMAINS.len()].to_owned(),
        DomainClass::Tracker => TRACKER_DOMAINS[idx % TRACKER_DOMAINS.len()].to_owned(),
        DomainClass::Benign => BENIGN_THIRD_DOMAINS[idx % BENIGN_THIRD_DOMAINS.len()].to_owned(),
    }
}

fn class_for_draw(classes: &[u32; 4], draw: u32) -> DomainClass {
    let d = draw % 1000;
    if d < classes[0] {
        DomainClass::FirstParty
    } else if d < classes[0] + classes[1] {
        DomainClass::Ad
    } else if d < classes[0] + classes[1] + classes[2] {
        DomainClass::Tracker
    } else {
        DomainClass::Benign
    }
}

/// Generate the site's adaptive response for a visit.
///
/// * `run` — 1-based repetition index (the paper's r1/r2/r3);
/// * `client_tag` — stable per-client identity (the "IP address"); drives
///   client-unique tracking-cookie values and rotation noise;
/// * `flagged_now` — the site's bot verdict for this visit;
/// * `flagged_before` — whether this site flagged this client in an earlier
///   run (re-identification memory; only sites with
///   `cloak.reidentifies` escalate on it).
pub fn site_response(
    plan: &SitePlan,
    run: u32,
    client_tag: u64,
    flagged_now: bool,
    flagged_before: bool,
) -> SiteResponse {
    let mut resp = SiteResponse::default();
    let esc = request_escalation_pm(run, flagged_before && plan.cloak.reidentifies);
    let cookie_esc = cookie_escalation_pm(run, flagged_before && plan.cloak.reidentifies);

    // ---- requests ----
    for (ti, p) in CONTENT.iter().enumerate() {
        let count = sample_count(plan, run, 0xA0 + ti as u64, p.mean_milli, p.noise_pm, client_tag);
        let withheld = if flagged_now {
            let pm = (p.withhold_pm as u64 * esc as u64 / 1000).min(900) as u32;
            scaled_count(count, pm, splitmix(plan.site_seed ^ salt_of(ti, 0xFFFF) ^ run as u64))
        } else {
            0
        };
        let served = count.saturating_sub(withheld);
        // The withheld tail is a proportionate slice of the engagement
        // layer — ad/tracker over-representation emerges from the *types*
        // that get withheld (beacons and XHR are tracker-heavy), matching
        // Table 9's moderate blocklist deltas.
        let mut classes: Vec<(u64, DomainClass)> = (0..count)
            .map(|k| {
                let d = splitmix(plan.site_seed ^ salt_of(ti, k) ^ (run as u64) << 40);
                let class = class_for_draw(&p.classes, (d % 1000) as u32);
                (splitmix(d) % 1000, class)
            })
            .collect();
        classes.sort_by_key(|(key, _)| *key);
        for (k, (_, class)) in classes.into_iter().take(served as usize).enumerate() {
            let host = pick_domain(class, plan, splitmix(plan.site_seed ^ salt_of(ti, k as u32)));
            let path = match class {
                DomainClass::Ad => format!("/ads/slot{k}.{}", ext(p.rt)),
                DomainClass::Tracker => format!("/collect/t{k}.{}", ext(p.rt)),
                _ => format!("/static/r{k}.{}", ext(p.rt)),
            };
            // Built typed: every host is a lowercase literal or site
            // domain, so this is what `Url::parse` of the rendered URL gives.
            let url = Url { scheme: "https".to_owned(), host, path, query: String::new() };
            resp.extra_requests.push((url, p.rt));
        }
    }

    // ---- cookies ----
    let push_cookies = |mean_milli: u32,
                            withhold_pm: u32,
                            third: bool,
                            tracking: bool,
                            resp: &mut SiteResponse| {
        let salt = 0xC0 + u64::from(third) + 2 * u64::from(tracking);
        let count = sample_count(plan, run, salt, mean_milli, 0, client_tag);
        let withheld = if flagged_now {
            let pm = (withhold_pm as u64 * cookie_esc as u64 / 1000).min(800) as u32;
            scaled_count(count, pm, splitmix(plan.site_seed ^ salt ^ run as u64))
        } else {
            0
        };
        for k in withheld..count {
            let domain = if third {
                let pool = if tracking { TRACKER_DOMAINS } else { BENIGN_THIRD_DOMAINS };
                let d = splitmix(plan.site_seed ^ salt ^ k as u64);
                pool[(d % pool.len() as u64) as usize].to_owned()
            } else {
                plan.domain.clone()
            };
            let (name, value, expires) = if tracking {
                // Per-client, per-run identifier: long, long-living, and
                // dissimilar across runs — the Chen/Englehardt criteria.
                let id = splitmix(client_tag ^ plan.site_seed ^ ((run as u64) << 48) ^ k as u64);
                (
                    format!("uid{k}"),
                    format!("{id:016x}{:08x}", splitmix(id) as u32),
                    Some(180 * 24 * 3600),
                )
            } else {
                let persistent = splitmix(plan.site_seed ^ k as u64).is_multiple_of(2);
                (
                    format!("c{k}"),
                    format!("v{}", splitmix(plan.site_seed ^ k as u64) % 100_000),
                    if persistent { Some(30 * 24 * 3600) } else { None },
                )
            };
            resp.cookies.push(Cookie {
                name,
                value,
                domain,
                page_domain: plan.domain.clone(),
                expires_in_s: expires,
            });
        }
    };
    push_cookies(FIRST_PARTY_COOKIES_MILLI, FIRST_PARTY_WITHHOLD_PM, false, false, &mut resp);
    push_cookies(THIRD_PARTY_COOKIES_MILLI, THIRD_PARTY_WITHHOLD_PM, true, false, &mut resp);
    push_cookies(
        TRACKING_COOKIES_MILLI,
        plan.cloak.tracking_withhold_pm,
        true,
        true,
        &mut resp,
    );
    resp
}

fn salt_of(type_index: usize, k: u32) -> u64 {
    (type_index as u64) << 32 | k as u64
}

fn ext(rt: ResourceType) -> &'static str {
    match rt {
        ResourceType::Image | ResourceType::ImageSet => "png",
        ResourceType::Script => "js",
        ResourceType::Stylesheet => "css",
        ResourceType::Font => "woff2",
        ResourceType::Media => "mp4",
        _ => "bin",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::Population;

    fn plan() -> SitePlan {
        Population::new(100_000, 1).plan(123)
    }

    #[test]
    fn unflagged_response_is_client_stable_modulo_noise() {
        let p = plan();
        let a = site_response(&p, 1, 0xAAAA, false, false);
        let b = site_response(&p, 1, 0xAAAA, false, false);
        assert_eq!(a.extra_requests.len(), b.extra_requests.len());
        assert_eq!(a.cookies.len(), b.cookies.len());
    }

    #[test]
    fn flagged_client_receives_less() {
        let p = plan();
        let human = site_response(&p, 1, 0xAAAA, false, false);
        let bot = site_response(&p, 1, 0xAAAA, true, false);
        assert!(bot.extra_requests.len() < human.extra_requests.len());
        assert!(bot.cookies.len() <= human.cookies.len());
    }

    #[test]
    fn escalation_reduces_further_on_later_runs() {
        // Average across many sites (single-site counts are too noisy).
        let pop = Population::new(100_000, 1);
        let total = |run: u32, before: bool| -> usize {
            (0..200)
                .map(|r| {
                    let p = pop.plan(r);
                    site_response(&p, run, 0xAAAA, true, before).extra_requests.len()
                })
                .sum()
        };
        assert!(
            total(3, true) < total(1, false),
            "escalated runs must withhold more"
        );
    }

    #[test]
    fn tracking_cookie_values_differ_per_client_and_run() {
        let p = plan();
        let a = site_response(&p, 1, 0xAAAA, false, false);
        let b = site_response(&p, 1, 0xBBBB, false, false);
        let c = site_response(&p, 2, 0xAAAA, false, false);
        let uid = |r: &SiteResponse| {
            r.cookies.iter().find(|c| c.name.starts_with("uid")).map(|c| c.value.clone())
        };
        let (ua, ub, uc) = (uid(&a), uid(&b), uid(&c));
        if let (Some(ua), Some(ub)) = (&ua, &ub) {
            assert_ne!(ua, ub, "tracking ids must differ per client");
        }
        if let (Some(ua), Some(uc)) = (&ua, &uc) {
            assert_ne!(ua, uc, "tracking ids must differ per run");
        }
    }

    #[test]
    fn request_mix_contains_ads_and_trackers() {
        let p = plan();
        let r = site_response(&p, 1, 0xAAAA, false, false);
        let ads = r
            .extra_requests
            .iter()
            .filter(|(u, _)| AD_DOMAINS.contains(&u.host.as_str()))
            .count();
        let total = r.extra_requests.len();
        assert!(total > 50, "total {total}");
        let share = ads as f64 / total as f64;
        assert!((0.05..0.30).contains(&share), "ad share {share}");
    }

    #[test]
    fn withheld_requests_overrepresent_ads_and_trackers() {
        let pop = Population::new(100_000, 1);
        let mut human_ads = 0usize;
        let mut bot_ads = 0usize;
        let mut human_total = 0usize;
        let mut bot_total = 0usize;
        for r in 0..100 {
            let p = pop.plan(r);
            let is_adtracker = |u: &Url| {
                AD_DOMAINS.iter().chain(TRACKER_DOMAINS).any(|d| u.host == *d)
            };
            let h = site_response(&p, 1, 0xAAAA, false, false);
            let b = site_response(&p, 1, 0xAAAA, true, false);
            human_ads += h.extra_requests.iter().filter(|(u, _)| is_adtracker(u)).count();
            bot_ads += b.extra_requests.iter().filter(|(u, _)| is_adtracker(u)).count();
            human_total += h.extra_requests.len();
            bot_total += b.extra_requests.len();
        }
        let removed_total = human_total - bot_total;
        let removed_ads = human_ads - bot_ads;
        // The withheld mass comes from tracker-heavy types (beacons, XHR),
        // so ad/tracker share of removals exceeds their overall share.
        let overall_share = human_ads as f64 / human_total as f64;
        let removed_share = removed_ads as f64 / removed_total.max(1) as f64;
        assert!(
            removed_share > overall_share,
            "withheld tail should over-represent ads/trackers: {removed_share:.3} vs {overall_share:.3}"
        );
    }
}
