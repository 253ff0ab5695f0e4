//! Cookie records and jars.
//!
//! Table 10 of the paper counts first-party, third-party and *tracking*
//! cookies per client. The tracking classifier (Englehardt et al. as refined
//! by Chen et al.) needs per-cookie expiry, length and cross-run value
//! stability — all carried here; the classifier itself lives in
//! `gullible::compare::cookies` because it needs the Ratcliff-Obershelp
//! similarity from the `stats` crate.

use crate::url::etld1_span;

/// First- or third-party attribution of a cookie with respect to the page
/// that was being visited when it was set.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CookieParty {
    First,
    Third,
}

/// One cookie as served during a visit.
#[derive(Clone, Debug, PartialEq)]
pub struct Cookie {
    pub name: String,
    pub value: String,
    /// Host that set the cookie.
    pub domain: String,
    /// Page (eTLD+1) being visited when it was set.
    pub page_domain: String,
    /// Expiry as seconds from the time it was set; `None` = session cookie.
    pub expires_in_s: Option<u64>,
}

impl Cookie {
    pub fn party(&self) -> CookieParty {
        if etld1_span(&self.domain).eq_ignore_ascii_case(etld1_span(&self.page_domain)) {
            CookieParty::First
        } else {
            CookieParty::Third
        }
    }

    pub fn is_session(&self) -> bool {
        self.expires_in_s.is_none()
    }

    /// "Long-living" in the sense of the tracking classifier: at least
    /// three months of lifetime.
    pub fn is_long_living(&self) -> bool {
        const THREE_MONTHS_S: u64 = 90 * 24 * 3600;
        self.expires_in_s.is_some_and(|s| s >= THREE_MONTHS_S)
    }

    /// Value length excluding surrounding quotes (classifier criterion 2).
    pub fn effective_len(&self) -> usize {
        self.value.trim_matches('"').chars().count()
    }
}

/// A per-client cookie store accumulating everything served over a crawl.
#[derive(Clone, Debug, Default)]
pub struct CookieJar {
    cookies: Vec<Cookie>,
}

impl CookieJar {
    pub fn new() -> CookieJar {
        CookieJar::default()
    }

    pub fn store(&mut self, cookie: Cookie) {
        self.cookies.push(cookie);
    }

    pub fn all(&self) -> &[Cookie] {
        &self.cookies
    }

    pub fn len(&self) -> usize {
        self.cookies.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cookies.is_empty()
    }

    pub fn count_party(&self, party: CookieParty) -> usize {
        self.cookies.iter().filter(|c| c.party() == party).count()
    }

    /// Look up a cookie by (domain, name) — used by the cross-run stability
    /// check of the tracking classifier.
    pub fn find(&self, domain: &str, name: &str) -> Option<&Cookie> {
        self.cookies.iter().find(|c| c.domain == domain && c.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cookie(domain: &str, page: &str, expires: Option<u64>) -> Cookie {
        Cookie {
            name: "id".into(),
            value: "abcdef0123456789".into(),
            domain: domain.into(),
            page_domain: page.into(),
            expires_in_s: expires,
        }
    }

    #[test]
    fn party_classification_uses_etld1() {
        assert_eq!(cookie("shop.example.com", "example.com", None).party(), CookieParty::First);
        assert_eq!(cookie("tracker.io", "example.com", None).party(), CookieParty::Third);
    }

    #[test]
    fn lifetime_classification() {
        assert!(cookie("a.com", "a.com", None).is_session());
        assert!(!cookie("a.com", "a.com", Some(3600)).is_long_living());
        assert!(cookie("a.com", "a.com", Some(180 * 24 * 3600)).is_long_living());
    }

    #[test]
    fn effective_len_strips_quotes() {
        let mut c = cookie("a.com", "a.com", None);
        c.value = "\"12345678\"".into();
        assert_eq!(c.effective_len(), 8);
    }

    #[test]
    fn jar_counting_and_lookup() {
        let mut jar = CookieJar::new();
        jar.store(cookie("a.com", "a.com", None));
        jar.store(cookie("t.io", "a.com", Some(1)));
        assert_eq!(jar.len(), 2);
        assert_eq!(jar.count_party(CookieParty::First), 1);
        assert_eq!(jar.count_party(CookieParty::Third), 1);
        assert!(jar.find("t.io", "id").is_some());
        assert!(jar.find("t.io", "nope").is_none());
    }
}
