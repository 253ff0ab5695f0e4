//! URL parsing and eTLD+1 extraction.
//!
//! The paper identifies domains via the eTLD+1 scheme (Sec. 4.1.2): the
//! registrable domain one label below the effective TLD. A full public
//! suffix list is overkill for the synthetic population, so a compact set of
//! multi-label suffixes covers the generated and hand-written hostnames.

use std::fmt;

/// A parsed URL (scheme://host/path?query).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Url {
    pub scheme: String,
    pub host: String,
    pub path: String,
    pub query: String,
}

/// Multi-label public suffixes recognised by [`Url::etld1`]. Everything else
/// is treated as a single-label suffix (`com`, `org`, `ru`, …).
const MULTI_LABEL_SUFFIXES: &[&str] = &[
    "co.uk", "org.uk", "ac.uk", "gov.uk", "com.au", "net.au", "org.au", "co.jp", "or.jp",
    "com.br", "com.cn", "com.tr", "com.mx", "co.in", "co.kr", "com.ar", "co.za", "com.tw",
    "github.io",
];

impl Url {
    /// Parse a URL string. Accepts scheme-relative (`//host/...`) and
    /// path-only inputs resolved against `https`/empty host.
    pub fn parse(input: &str) -> Option<Url> {
        let input = input.trim();
        if input.is_empty() {
            return None;
        }
        let (scheme, rest) = match input.find("://") {
            Some(i) => (&input[..i], &input[i + 3..]),
            None => match input.strip_prefix("//") {
                Some(rest) => ("https", rest),
                None => return None,
            },
        };
        let (hostpath, query) = match rest.find('?') {
            Some(i) => (&rest[..i], &rest[i + 1..]),
            None => (rest, ""),
        };
        let (host, path) = match hostpath.find('/') {
            Some(i) => (&hostpath[..i], &hostpath[i..]),
            None => (hostpath, "/"),
        };
        if host.is_empty() {
            return None;
        }
        Some(Url {
            scheme: scheme.to_ascii_lowercase(),
            host: host.to_ascii_lowercase(),
            path: path.to_owned(),
            query: query.to_owned(),
        })
    }

    /// The registrable domain (eTLD+1) of the host.
    ///
    /// `www.news.example.co.uk` → `example.co.uk`;
    /// `cdn.tracker.com` → `tracker.com`.
    pub fn etld1(&self) -> String {
        etld1_of(&self.host)
    }

    /// True when `other` belongs to the same registrable domain.
    pub fn same_site(&self, other: &Url) -> bool {
        self.etld1() == other.etld1()
    }

    /// The final path segment (used by URL-pattern clustering, Appx. A).
    pub fn filename(&self) -> &str {
        self.path.rsplit('/').next().unwrap_or("")
    }
}

/// eTLD+1 of a bare hostname, lowercase.
pub fn etld1_of(host: &str) -> String {
    etld1_span(host).to_ascii_lowercase()
}

/// eTLD+1 of a bare hostname, borrowed from it in its own case: the whole
/// host, or the suffix of it that starts right after a `.`. Public
/// suffixes match ASCII-case-insensitively, so
/// `etld1_span(h).to_ascii_lowercase() == etld1_span(&h.to_ascii_lowercase())`.
pub fn etld1_span(host: &str) -> &str {
    let ends_with = |suffix: &str| {
        let at = host.len().checked_sub(suffix.len());
        at.is_some_and(|at| host.as_bytes()[at..].eq_ignore_ascii_case(suffix.as_bytes()))
    };
    let labels = match MULTI_LABEL_SUFFIXES.iter().find(|suffix| ends_with(suffix)) {
        Some(suffix) => suffix.split('.').count() + 1,
        None => 2,
    };
    // The last `labels` labels, or the whole host when it has no more.
    match host.rmatch_indices('.').nth(labels - 1) {
        Some((dot, _)) => &host[dot + 1..],
        None => host,
    }
}

impl fmt::Display for Url {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}://{}{}", self.scheme, self.host, self.path)?;
        if !self.query.is_empty() {
            write!(f, "?{}", self.query)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_url() {
        let u = Url::parse("https://www.example.com/a/b.js?x=1").unwrap();
        assert_eq!(u.scheme, "https");
        assert_eq!(u.host, "www.example.com");
        assert_eq!(u.path, "/a/b.js");
        assert_eq!(u.query, "x=1");
        assert_eq!(u.filename(), "b.js");
    }

    #[test]
    fn parse_defaults() {
        let u = Url::parse("http://host").unwrap();
        assert_eq!(u.path, "/");
        assert!(Url::parse("").is_none());
        assert!(Url::parse("not a url").is_none());
        let schemeless = Url::parse("//cdn.x.com/lib.js").unwrap();
        assert_eq!(schemeless.scheme, "https");
    }

    #[test]
    fn etld1_basic() {
        assert_eq!(etld1_of("www.example.com"), "example.com");
        assert_eq!(etld1_of("example.com"), "example.com");
        assert_eq!(etld1_of("a.b.c.tracker.net"), "tracker.net");
        assert_eq!(etld1_of("com"), "com");
        assert_eq!(etld1_of("a..b"), ".b");
        assert_eq!(etld1_of("cdn.Tracker.com"), "tracker.com");
        assert_eq!(etld1_span("cdn.Tracker.com"), "Tracker.com");
    }

    #[test]
    fn etld1_multi_label_suffixes() {
        assert_eq!(etld1_of("www.example.co.uk"), "example.co.uk");
        assert_eq!(etld1_of("example.co.uk"), "example.co.uk");
        assert_eq!(etld1_of("user.github.io"), "user.github.io");
        assert_eq!(etld1_of("deep.sub.example.com.au"), "example.com.au");
        assert_eq!(etld1_of("x.bco.uk"), "x.bco.uk");
        assert_eq!(etld1_span("WWW.Example.CO.UK"), "Example.CO.UK");
    }

    #[test]
    fn same_site_comparisons() {
        let a = Url::parse("https://www.shop.example.com/").unwrap();
        let b = Url::parse("https://cdn.example.com/x.js").unwrap();
        let c = Url::parse("https://tracker.io/t.js").unwrap();
        assert!(a.same_site(&b));
        assert!(!a.same_site(&c));
    }

    #[test]
    fn display_roundtrip() {
        let s = "https://example.com/a?b=c";
        assert_eq!(Url::parse(s).unwrap().to_string(), s);
    }

    #[test]
    fn host_case_insensitive() {
        assert_eq!(Url::parse("https://ExAmPle.COM/").unwrap().host, "example.com");
    }
}
