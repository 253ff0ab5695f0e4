//! The HTTP instrument: request logging plus response-body saving.
//!
//! Real OpenWPM either stores all response bodies or only JavaScript files
//! (matched by `Content-Type` / `.js` extension). The filtered mode is the
//! one the silent-delivery attack (Listing 4) evades: JavaScript served as
//! `text/plain` without a `.js` extension, executed client-side via
//! `eval`, never enters the saved-scripts table. Sec. 6.2.3's advice —
//! don't filter under an active adversary — corresponds to
//! [`HttpSaveMode::Full`].

use netsim::{HttpRequest, HttpResponse};

use crate::config::HttpSaveMode;
use crate::records::{RecordStore, SavedScript};

/// Record observed requests, moving them into the store.
pub fn record_requests(store: &mut RecordStore, mut requests: Vec<HttpRequest>) {
    store.http_requests.append(&mut requests);
}

/// Record one response according to the save mode.
pub fn record_response(
    store: &mut RecordStore,
    resp: &HttpResponse,
    mode: HttpSaveMode,
    page_url: &str,
) {
    match mode {
        HttpSaveMode::Full => {
            store.http_responses.push(resp.clone());
            if resp.looks_like_javascript() {
                store.saved_scripts.push(SavedScript {
                    url: resp.url.to_string(),
                    body: resp.body.clone(),
                    page_url: page_url.to_owned(),
                });
            }
        }
        HttpSaveMode::JavascriptOnly => {
            if resp.looks_like_javascript() {
                store.saved_scripts.push(SavedScript {
                    url: resp.url.to_string(),
                    body: resp.body.clone(),
                    page_url: page_url.to_owned(),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::Url;

    fn resp(path: &str, ctype: &str, body: &str) -> HttpResponse {
        HttpResponse {
            url: Url::parse(&format!("https://x.test{path}")).unwrap(),
            status: 200,
            content_type: ctype.into(),
            body: body.into(),
        }
    }

    #[test]
    fn js_only_mode_saves_scripts() {
        let mut store = RecordStore::new();
        record_response(&mut store, &resp("/a.js", "text/javascript", "x()"), HttpSaveMode::JavascriptOnly, "p");
        assert_eq!(store.saved_scripts.len(), 1);
        assert!(store.http_responses.is_empty());
    }

    #[test]
    fn silent_delivery_evades_js_only_mode() {
        // Listing 4: text/plain without .js extension — invisible to the
        // filtered instrument…
        let mut store = RecordStore::new();
        let stealthy = resp("/cheat", "text/plain", "window.secret = 1;");
        record_response(&mut store, &stealthy, HttpSaveMode::JavascriptOnly, "p");
        assert!(store.saved_scripts.is_empty());
        // …but full mode still captures the body (Sec. 6.2.3).
        record_response(&mut store, &stealthy, HttpSaveMode::Full, "p");
        assert_eq!(store.http_responses.len(), 1);
        assert_eq!(&*store.http_responses[0].body, "window.secret = 1;");
    }

    #[test]
    fn full_mode_saves_everything_and_indexes_js() {
        let mut store = RecordStore::new();
        record_response(&mut store, &resp("/a.js", "text/javascript", "x()"), HttpSaveMode::Full, "p");
        record_response(&mut store, &resp("/img.png", "image/png", ""), HttpSaveMode::Full, "p");
        assert_eq!(store.http_responses.len(), 2);
        assert_eq!(store.saved_scripts.len(), 1);
    }
}
