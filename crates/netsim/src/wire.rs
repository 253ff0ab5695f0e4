//! Canonical single-line encoding of HTTP responses.
//!
//! The crawl archive folds every HTTP response a visit produced into its
//! capture digest (`openwpm::StoreCapture::of`), so it needs one stable,
//! unambiguous line per response — the SQL dump is too loose for that (it
//! escapes and drops fields). Fields are space-separated; URLs never
//! contain spaces in the simulated web, and the one free-text field
//! (`content_type`) is placed last so it may contain anything but a
//! newline.

use crate::http::{HttpResponse, ResourceType};
use obs::fnv1a;

impl ResourceType {
    /// Inverse of [`ResourceType::as_str`]. Returns `None` for unknown
    /// names so corrupt archives fail loudly instead of mis-bucketing.
    pub fn parse(s: &str) -> Option<ResourceType> {
        ResourceType::all().iter().copied().find(|t| t.as_str() == s)
    }
}

/// `{status} {body_fnv:016x} {body_len} {url} {content_type}` — the body
/// itself lives in the content-addressed blob store (or, for non-script
/// payloads, only its hash is retained), so the wire line carries its
/// identity, not its bytes.
pub fn encode_response(resp: &HttpResponse) -> String {
    format!(
        "{} {:016x} {} {} {}",
        resp.status,
        fnv1a(resp.body.as_bytes()),
        resp.body.len(),
        resp.url,
        resp.content_type
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::url::Url;

    #[test]
    fn resource_type_parse_inverts_as_str() {
        for t in ResourceType::all() {
            assert_eq!(ResourceType::parse(t.as_str()), Some(*t));
        }
        assert_eq!(ResourceType::parse("scripts"), None);
        assert_eq!(ResourceType::parse(""), None);
    }

    /// A changed response field, the body included, changes the line the
    /// capture digest folds in; the line carries the body's identity, not
    /// its bytes.
    #[test]
    fn distinct_bodies_get_distinct_hashes() {
        let a = HttpResponse {
            url: Url::parse("https://a.com/x.js").unwrap(),
            status: 200,
            content_type: "text/javascript".into(),
            body: "var a = 1;".into(),
        };
        let line = encode_response(&a);
        let hash = fnv1a(b"var a = 1;");
        assert_eq!(line, format!("200 {hash:016x} 10 https://a.com/x.js text/javascript"));
        let mut variants = vec![a.clone(); 5];
        variants[0].body = "var a = 2;".into();
        variants[1].body = "var a = 1; ".into();
        variants[2].status = 404;
        variants[3].url = Url::parse("https://a.com/y.js").unwrap();
        variants[4].content_type = "text/plain".into();
        for v in &variants {
            assert_ne!(encode_response(v), line, "{v:?}");
        }
    }
}
