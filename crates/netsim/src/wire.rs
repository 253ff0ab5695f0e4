//! Canonical single-line encodings of traffic records.
//!
//! The crawl archive folds every HTTP record a visit produced into its
//! capture digest, and `archive_diff` prints record-level deltas between
//! two bundles. Both need one stable, unambiguous line per record — the
//! SQL dump is too loose for that (it escapes and drops fields). The
//! encodings here are exact: `decode_*` inverts `encode_*` for every
//! record the simulator can produce, which the round-trip tests pin down.
//!
//! Fields are space-separated; URLs, methods and resource-type names never
//! contain spaces in the simulated web, and the one free-text field per
//! record (`content_type`) is placed last so it may contain anything but a
//! newline.

use crate::http::{HttpRequest, HttpResponse, ResourceType};
use crate::url::Url;
use obs::fnv1a;

impl ResourceType {
    /// Inverse of [`ResourceType::as_str`]. Returns `None` for unknown
    /// names so corrupt archives fail loudly instead of mis-bucketing.
    pub fn parse(s: &str) -> Option<ResourceType> {
        ResourceType::all().iter().copied().find(|t| t.as_str() == s)
    }
}

/// `{method} {resource_type} {time_ms} {url} {page}`
pub fn encode_request(req: &HttpRequest) -> String {
    format!(
        "{} {} {} {} {}",
        req.method,
        req.resource_type.as_str(),
        req.time_ms,
        req.url,
        req.page
    )
}

/// Inverse of [`encode_request`].
pub fn decode_request(line: &str) -> Option<HttpRequest> {
    let mut it = line.splitn(5, ' ');
    let method = match it.next()? {
        "GET" => "GET",
        "POST" => "POST",
        "HEAD" => "HEAD",
        _ => return None,
    };
    let resource_type = ResourceType::parse(it.next()?)?;
    let time_ms = it.next()?.parse().ok()?;
    let url = Url::parse(it.next()?)?;
    let page = Url::parse(it.next()?)?;
    Some(HttpRequest { url, page, resource_type, method, time_ms })
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

/// Decoded form of [`encode_response`]: everything but the body bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResponseSummary {
    pub url: Url,
    pub status: u16,
    pub content_type: String,
    /// FNV-64 of the body — the blob-store key when the body was archived.
    pub body_hash: u64,
    pub body_len: usize,
}

impl ResponseSummary {
    /// Summarise a live response.
    pub fn of(resp: &HttpResponse) -> ResponseSummary {
        ResponseSummary {
            url: resp.url.clone(),
            status: resp.status,
            content_type: resp.content_type.clone(),
            body_hash: fnv1a(resp.body.as_bytes()),
            body_len: resp.body.len(),
        }
    }
}

/// Inverse of [`encode_response`], minus the body.
pub fn decode_response(line: &str) -> Option<ResponseSummary> {
    let mut it = line.splitn(5, ' ');
    let status = it.next()?.parse().ok()?;
    let body_hash = u64::from_str_radix(it.next()?, 16).ok()?;
    let body_len = it.next()?.parse().ok()?;
    let url = Url::parse(it.next()?)?;
    let content_type = it.next()?.to_string();
    Some(ResponseSummary { url, status, content_type, body_hash, body_len })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    #[test]
    fn resource_type_parse_inverts_as_str() {
        for t in ResourceType::all() {
            assert_eq!(ResourceType::parse(t.as_str()), Some(*t));
        }
        assert_eq!(ResourceType::parse("scripts"), None);
        assert_eq!(ResourceType::parse(""), None);
    }

    #[test]
    fn request_roundtrip() {
        let req = HttpRequest {
            url: url("https://cdn.w000001.com/lib/app.js?v=3"),
            page: url("https://w000001.com/"),
            resource_type: ResourceType::Script,
            method: "GET",
            time_ms: 4217,
        };
        let line = encode_request(&req);
        let back = decode_request(&line).unwrap();
        assert_eq!(back.url, req.url);
        assert_eq!(back.page, req.page);
        assert_eq!(back.resource_type, req.resource_type);
        assert_eq!(back.method, req.method);
        assert_eq!(back.time_ms, req.time_ms);
        assert_eq!(encode_request(&back), line);
    }

    #[test]
    fn request_decode_rejects_garbage() {
        assert!(decode_request("").is_none());
        assert!(decode_request("GET script").is_none());
        assert!(decode_request("PUT script 1 https://a.com/ https://a.com/").is_none());
        assert!(decode_request("GET scriptz 1 https://a.com/ https://a.com/").is_none());
    }

    #[test]
    fn response_roundtrip_keeps_identity_not_bytes() {
        let resp = HttpResponse {
            url: url("https://w000002.com/app.js"),
            status: 200,
            content_type: "text/javascript; charset=utf-8".into(),
            body: "navigator.userAgent;".into(),
        };
        let line = encode_response(&resp);
        let sum = decode_response(&line).unwrap();
        assert_eq!(sum, ResponseSummary::of(&resp));
        assert_eq!(sum.body_hash, fnv1a(resp.body.as_bytes()));
        assert_eq!(sum.body_len, resp.body.len());
        // content_type with a space survives (it is the trailing field).
        assert!(sum.content_type.ends_with("charset=utf-8"));
    }

    #[test]
    fn response_decode_rejects_garbage() {
        assert_eq!(decode_response("200 zz 4 https://a.com/ t"), None);
        assert_eq!(decode_response("abc"), None);
    }

    #[test]
    fn distinct_bodies_get_distinct_hashes() {
        let a = HttpResponse {
            url: url("https://a.com/x.js"),
            status: 200,
            content_type: "text/javascript".into(),
            body: "var a = 1;".into(),
        };
        let mut b = a.clone();
        b.body = "var a = 2;".into();
        let ha = decode_response(&encode_response(&a)).unwrap().body_hash;
        let hb = decode_response(&encode_response(&b)).unwrap().body_hash;
        assert_ne!(ha, hb);
    }
}
