//! EasyList/EasyPrivacy-style filter lists.
//!
//! Table 9 of the paper counts HTTP requests matching EasyList (ads) and
//! EasyPrivacy (trackers). Real filter lists are tens of thousands of rules
//! with a bespoke syntax; the evaluation only needs the two capabilities
//! those rules actually provide for counting: domain anchors
//! (`||tracker.io^`) and path substrings (`/pixel.gif`). Both are
//! implemented here along with a parser for that sub-syntax, so the
//! synthetic lists are written in genuine EasyList notation.
//!
//! A parsed list is compiled for matching. Domain anchors go into a set of
//! lowercase domains; a host matches when the whole host, or any suffix of
//! it that starts right after a `.`, is in the set. That is one hash probe
//! per label and no allocation (the host is lowercased into a copy only if
//! it holds an ASCII uppercase byte).
//!
//! The rule "a host matches when its eTLD+1 is an anchored domain" needs
//! no probe of its own: [`etld1_of`](crate::url::etld1_of) always returns
//! the whole host or one of its dot-aligned suffixes, so that rule is
//! implied by the two above. The naive per-rule loop that checked all
//! three survives as the differential oracle in `tests/properties.rs`.
//!
//! Path substrings are tested with `str::contains`. Each generated list has
//! exactly one path rule, so an automaton (`matcher::CompiledMatcher`)
//! would add a crate dependency to speed up a single substring search.

use std::collections::HashSet;

use crate::http::HttpRequest;

/// Which list a rule came from — ads (EasyList) vs trackers (EasyPrivacy).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BlocklistKind {
    EasyList,
    EasyPrivacy,
}

/// A parsed filter list, compiled for matching.
#[derive(Clone, Debug)]
pub struct Blocklist {
    pub kind: BlocklistKind,
    /// `||domain^` anchors, lowercase: each matches the domain and all its
    /// subdomains.
    domains: HashSet<String>,
    /// `/substring` rules: each matches anywhere in the path.
    paths: Vec<String>,
}

impl Blocklist {
    /// Parse rules in the supported EasyList sub-syntax. Comment lines
    /// (`!`), element-hiding rules (`##`) and empty lines are skipped, as a
    /// real consumer of the lists would for network-layer matching.
    pub fn parse(kind: BlocklistKind, text: &str) -> Blocklist {
        let mut domains = HashSet::new();
        let mut paths = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('!') || line.contains("##") {
                continue;
            }
            if let Some(rest) = line.strip_prefix("||") {
                let domain = rest.trim_end_matches('^').to_ascii_lowercase();
                if !domain.is_empty() {
                    domains.insert(domain);
                }
            } else if line.starts_with('/') {
                paths.push(line.to_owned());
            }
        }
        Blocklist { kind, domains, paths }
    }

    /// Distinct domain anchors plus path rules.
    pub fn rule_count(&self) -> usize {
        self.domains.len() + self.paths.len()
    }

    /// Does any rule match this request?
    pub fn matches(&self, req: &HttpRequest) -> bool {
        let host = req.url.host.as_str();
        let lowered;
        let host = if host.bytes().any(|b| b.is_ascii_uppercase()) {
            lowered = host.to_ascii_lowercase();
            lowered.as_str()
        } else {
            host
        };
        self.domains.contains(host)
            || host.match_indices('.').any(|(i, _)| self.domains.contains(&host[i + 1..]))
            || self.paths.iter().any(|sub| req.url.path.contains(sub.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::ResourceType;
    use crate::url::Url;

    fn req(target: &str) -> HttpRequest {
        HttpRequest {
            url: Url::parse(target).unwrap(),
            page: Url::parse("https://site.example.com/").unwrap().into(),
            resource_type: ResourceType::Script,
            method: "GET",
            time_ms: 0,
        }
    }

    #[test]
    fn parses_and_matches_domain_anchors() {
        let list = Blocklist::parse(
            BlocklistKind::EasyList,
            "! comment\n||adnet.io^\n||moatads.com^\nsite.com##.ad-banner\n",
        );
        assert_eq!(list.rule_count(), 2);
        assert!(list.matches(&req("https://adnet.io/x.js")));
        assert!(list.matches(&req("https://cdn.adnet.io/x.js")));
        assert!(list.matches(&req("https://px.moatads.com/pixel")));
        assert!(!list.matches(&req("https://benign.org/x.js")));
    }

    #[test]
    fn matches_path_substrings() {
        let list = Blocklist::parse(BlocklistKind::EasyPrivacy, "/tracking-pixel.\n/beacon.js\n");
        assert!(list.matches(&req("https://any.org/assets/tracking-pixel.gif")));
        assert!(list.matches(&req("https://any.org/js/beacon.js")));
        assert!(!list.matches(&req("https://any.org/js/app.js")));
    }

    #[test]
    fn domain_anchor_does_not_match_superstrings() {
        let list = Blocklist::parse(BlocklistKind::EasyList, "||ads.com^");
        assert!(!list.matches(&req("https://notads.company.org/x")));
        assert!(!list.matches(&req("https://loads.com.safe.org/x")));
    }
}
