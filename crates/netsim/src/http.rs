//! HTTP request/response records and the `webRequest` resource taxonomy.

use std::fmt;
use std::sync::Arc;

use crate::url::Url;

/// Resource types as exposed by Firefox's `webRequest` API — the grouping of
/// Table 8 in the paper. `CspReport` is load-bearing: vanilla OpenWPM's DOM
/// injection triggers `script-src` violations whose reports show up in this
/// bucket, and the hardened client eliminates them (Sec. 6.3.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ResourceType {
    MainFrame,
    SubFrame,
    Script,
    Image,
    ImageSet,
    Stylesheet,
    Font,
    Media,
    Object,
    XmlHttpRequest,
    Beacon,
    WebSocket,
    CspReport,
    Other,
}

impl ResourceType {
    /// The `webRequest` string name (used when printing Table 8).
    pub fn as_str(&self) -> &'static str {
        match self {
            ResourceType::MainFrame => "main_frame",
            ResourceType::SubFrame => "sub_frame",
            ResourceType::Script => "script",
            ResourceType::Image => "image",
            ResourceType::ImageSet => "imageset",
            ResourceType::Stylesheet => "stylesheet",
            ResourceType::Font => "font",
            ResourceType::Media => "media",
            ResourceType::Object => "object",
            ResourceType::XmlHttpRequest => "xmlhttprequest",
            ResourceType::Beacon => "beacon",
            ResourceType::WebSocket => "websocket",
            ResourceType::CspReport => "csp_report",
            ResourceType::Other => "other",
        }
    }

    /// All variants, in a stable order.
    pub fn all() -> &'static [ResourceType] {
        &[
            ResourceType::CspReport,
            ResourceType::Media,
            ResourceType::Beacon,
            ResourceType::WebSocket,
            ResourceType::XmlHttpRequest,
            ResourceType::ImageSet,
            ResourceType::Font,
            ResourceType::Object,
            ResourceType::MainFrame,
            ResourceType::Image,
            ResourceType::Script,
            ResourceType::SubFrame,
            ResourceType::Other,
            ResourceType::Stylesheet,
        ]
    }
}

impl fmt::Display for ResourceType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One observed HTTP request.
#[derive(Clone, Debug)]
pub struct HttpRequest {
    pub url: Url,
    /// The top-level page the request belongs to, shared by every request
    /// of one visit.
    pub page: Arc<Url>,
    pub resource_type: ResourceType,
    pub method: &'static str,
    /// Virtual time of the request (ms since crawl start).
    pub time_ms: u64,
}

impl HttpRequest {
    /// Third-party request: target eTLD+1 differs from the page's.
    pub fn is_third_party(&self) -> bool {
        !self.url.same_site(&self.page)
    }
}

/// One observed HTTP response.
#[derive(Clone, Debug)]
pub struct HttpResponse {
    pub url: Url,
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: String,
    /// Response body (script text for scripts; placeholder for media).
    /// Shared: a script body served with many pages, and the saved copy
    /// the HTTP instrument keeps of it, alias one allocation.
    pub body: std::sync::Arc<str>,
}

impl HttpResponse {
    /// Does this response *look like* JavaScript to a filter that trusts
    /// headers and extensions? The silent-delivery attack (paper Sec. 5.4.2,
    /// Listing 4) serves JS that fails both checks.
    pub fn looks_like_javascript(&self) -> bool {
        self.content_type.contains("javascript") || self.url.path.ends_with(".js")
    }

    /// 2xx success — the only responses whose data a crawler should treat
    /// as a completed page load.
    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.status)
    }

    /// A transient `503 Service Unavailable` answer — what the fault
    /// injector's flaky-HTTP mode serves in place of the real page.
    pub fn service_unavailable(url: Url) -> HttpResponse {
        HttpResponse {
            url,
            status: 503,
            content_type: "text/html".into(),
            body: "<html><body>503 Service Unavailable</body></html>".into(),
        }
    }
}

/// Deterministic transient-failure model for the simulated transport: a
/// per-mille rate and a seed decide, per `(url, attempt)`, whether a fetch
/// answers 503 instead of its real response. Stateless, so outcomes never
/// depend on request ordering or worker scheduling.
#[derive(Clone, Copy, Debug)]
pub struct FlakyNetwork {
    pub per_mille: u32,
    pub seed: u64,
}

impl FlakyNetwork {
    pub fn new(per_mille: u32, seed: u64) -> FlakyNetwork {
        FlakyNetwork { per_mille, seed }
    }

    /// Does the fetch of `url` fail transiently on this attempt?
    pub fn fails(&self, url: &Url, attempt: u32) -> bool {
        if self.per_mille == 0 {
            return false;
        }
        let mut h = self.seed ^ (attempt as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93);
        for b in url.to_string().bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01B3);
        }
        h = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
        (h % 1000) < self.per_mille as u64
    }

    /// The response for `url`: `real` on success, a 503 on failure.
    pub fn respond(&self, url: &Url, attempt: u32, real: HttpResponse) -> HttpResponse {
        obs::add("netsim.responses", 1);
        if self.fails(url, attempt) {
            obs::add("netsim.failures.transient", 1);
            obs::emit(
                obs::Event::new(0, "net_failure")
                    .attr("url", url.to_string())
                    .attr("attempt", attempt),
            );
            HttpResponse::service_unavailable(url.clone())
        } else {
            real
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    #[test]
    fn resource_type_names_match_webrequest() {
        assert_eq!(ResourceType::CspReport.as_str(), "csp_report");
        assert_eq!(ResourceType::XmlHttpRequest.as_str(), "xmlhttprequest");
        assert_eq!(ResourceType::all().len(), 14);
    }

    #[test]
    fn third_party_detection() {
        let req = HttpRequest {
            url: url("https://tracker.io/pixel.gif"),
            page: url("https://news.example.com/").into(),
            resource_type: ResourceType::Image,
            method: "GET",
            time_ms: 0,
        };
        assert!(req.is_third_party());
        let own = HttpRequest {
            url: url("https://static.example.com/app.js"),
            page: url("https://news.example.com/").into(),
            resource_type: ResourceType::Script,
            method: "GET",
            time_ms: 0,
        };
        assert!(!own.is_third_party());
    }

    #[test]
    fn javascript_detection_by_header_or_extension() {
        let by_header = HttpResponse {
            url: url("https://x.com/code"),
            status: 200,
            content_type: "text/javascript".into(),
            body: "".into(),
        };
        assert!(by_header.looks_like_javascript());
        let by_ext = HttpResponse {
            url: url("https://x.com/lib.js"),
            status: 200,
            content_type: "text/plain".into(),
            body: "".into(),
        };
        assert!(by_ext.looks_like_javascript());
        let stealth = HttpResponse {
            url: url("https://x.com/cheat"),
            status: 200,
            content_type: "text/plain".into(),
            body: "window.secret()".into(),
        };
        assert!(!stealth.looks_like_javascript());
    }

    #[test]
    fn service_unavailable_is_not_success() {
        let resp = HttpResponse::service_unavailable(url("https://w000001.com/"));
        assert_eq!(resp.status, 503);
        assert!(!resp.is_success());
        let ok = HttpResponse {
            url: url("https://w000001.com/"),
            status: 200,
            content_type: "text/html".into(),
            body: "".into(),
        };
        assert!(ok.is_success());
    }

    #[test]
    fn flaky_network_is_deterministic_and_rate_bound() {
        let net = FlakyNetwork::new(100, 7);
        let mut failures = 0;
        for i in 0..10_000 {
            let u = url(&format!("https://w{i:06}.com/"));
            assert_eq!(net.fails(&u, 1), net.fails(&u, 1));
            if net.fails(&u, 1) {
                failures += 1;
            }
        }
        // 10% ± generous tolerance.
        assert!((800..=1200).contains(&failures), "failures = {failures}");
        // Zero rate never fails; retries can clear a failure.
        let quiet = FlakyNetwork::new(0, 7);
        assert!(!quiet.fails(&url("https://a.com/"), 1));
        let some_recovers = (0..1000).any(|i| {
            let u = url(&format!("https://w{i:06}.com/"));
            net.fails(&u, 1) && !net.fails(&u, 2)
        });
        assert!(some_recovers);
    }

    #[test]
    fn flaky_network_respond_swaps_in_503() {
        let net = FlakyNetwork::new(1000, 1); // always fails
        let u = url("https://w000001.com/");
        let real = HttpResponse {
            url: u.clone(),
            status: 200,
            content_type: "text/html".into(),
            body: "hello".into(),
        };
        let got = net.respond(&u, 1, real.clone());
        assert_eq!(got.status, 503);
        let calm = FlakyNetwork::new(0, 1);
        assert_eq!(calm.respond(&u, 1, real).status, 200);
    }
}
