//! Generated EasyList / EasyPrivacy simulacra covering the population's ad
//! and tracker host pools (Table 9's methodology: "use the EasyList and
//! EasyPrivacy blocklists to identify trackers").

use std::sync::OnceLock;

use netsim::{Blocklist, BlocklistKind};

use crate::behaviour::{AD_DOMAINS, TRACKER_DOMAINS};

/// Render the EasyList text (ads).
pub fn easylist_text() -> String {
    let mut out = String::from("! Title: EasyList (population simulacrum)\n");
    for d in AD_DOMAINS {
        out.push_str(&format!("||{d}^\n"));
    }
    out.push_str("/ads/slot\n");
    out
}

/// Render the EasyPrivacy text (trackers).
pub fn easyprivacy_text() -> String {
    let mut out = String::from("! Title: EasyPrivacy (population simulacrum)\n");
    for d in TRACKER_DOMAINS {
        out.push_str(&format!("||{d}^\n"));
    }
    out.push_str("/collect/t\n");
    out
}

/// The parsed EasyList. Both lists are constants of the population, so each
/// is parsed once per process.
pub fn easylist() -> &'static Blocklist {
    static LIST: OnceLock<Blocklist> = OnceLock::new();
    LIST.get_or_init(|| Blocklist::parse(BlocklistKind::EasyList, &easylist_text()))
}

/// The parsed EasyPrivacy, parsed once per process like [`easylist`].
pub fn easyprivacy() -> &'static Blocklist {
    static LIST: OnceLock<Blocklist> = OnceLock::new();
    LIST.get_or_init(|| Blocklist::parse(BlocklistKind::EasyPrivacy, &easyprivacy_text()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{HttpRequest, ResourceType, Url};

    fn req(target: &str) -> HttpRequest {
        HttpRequest {
            url: Url::parse(target).unwrap(),
            page: Url::parse("https://w000001.com/").unwrap().into(),
            resource_type: ResourceType::Image,
            method: "GET",
            time_ms: 0,
        }
    }

    #[test]
    fn easylist_matches_ad_traffic() {
        let list = easylist();
        assert!(list.rule_count() > AD_DOMAINS.len());
        assert!(list.matches(&req("https://moatads.com/ads/slot3.png")));
        assert!(list.matches(&req("https://w000001.com/ads/slot0.png"))); // path rule
        assert!(!list.matches(&req("https://w000001.com/static/r1.png")));
    }

    #[test]
    fn easyprivacy_matches_tracker_traffic() {
        let list = easyprivacy();
        assert!(list.matches(&req("https://yandex.ru/collect/t1.bin")));
        assert!(list.matches(&req("https://metrics.example/x.gif")));
        assert!(!list.matches(&req("https://jsdelivr.net/lib.js")));
    }

    #[test]
    fn lists_are_parsed_once() {
        assert!(std::ptr::eq(easylist(), easylist()));
        assert!(std::ptr::eq(easyprivacy(), easyprivacy()));
    }

    #[test]
    fn lists_are_roughly_disjoint() {
        // EasyList and EasyPrivacy overlap barely in the paper's counts;
        // our pools are disjoint by construction.
        let el = easylist();
        let ep = easyprivacy();
        for d in AD_DOMAINS {
            assert!(!ep.matches(&req(&format!("https://{d}/static/x.png"))), "{d}");
        }
        for d in TRACKER_DOMAINS {
            assert!(!el.matches(&req(&format!("https://{d}/static/x.png"))), "{d}");
        }
    }
}
