//! The data-recording back-end ("SQLite" in real OpenWPM).
//!
//! Every instrument writes typed records into a [`RecordStore`]. Sec. 5.3 of
//! the paper checked OpenWPM v0.20.0's back-end for SQL injection and found
//! inputs properly sanitised; we model that by (a) keeping typed records and
//! (b) exposing an SQL rendering used for persistence whose string escaping
//! is tested against injection-shaped inputs.

use netsim::{Cookie, HttpRequest, HttpResponse};

/// What a JavaScript-instrument record describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum JsOperation {
    Get,
    Set,
    Call,
}

impl JsOperation {
    pub fn as_str(&self) -> &'static str {
        match self {
            JsOperation::Get => "get",
            JsOperation::Set => "set",
            JsOperation::Call => "call",
        }
    }

    /// Parse an operation string from event data. Returns `None` for
    /// anything unknown: event payloads come from page-reachable
    /// channels, and silently coercing garbage to `Get` would let a
    /// hostile page fabricate plausible-looking read records (the
    /// fake-data attack of Sec. 5.2). Callers drop the record and count
    /// it in [`RecordStore::malformed_events`] instead.
    pub fn parse(s: &str) -> Option<JsOperation> {
        match s {
            "get" => Some(JsOperation::Get),
            "set" => Some(JsOperation::Set),
            "call" => Some(JsOperation::Call),
            _ => None,
        }
    }
}

/// Terminal status of one site visit, as persisted to `crawl_history`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CrawlStatus {
    /// Visit completed and its data was committed.
    Ok,
    /// All retries exhausted; the site contributed no data.
    Failed,
    /// The crawl stopped before this site was visited.
    Interrupted,
}

impl CrawlStatus {
    pub fn as_str(&self) -> &'static str {
        match self {
            CrawlStatus::Ok => "ok",
            CrawlStatus::Failed => "failed",
            CrawlStatus::Interrupted => "interrupted",
        }
    }
}

/// One row of OpenWPM's `crawl_history` table: what happened to each
/// commanded visit. Sites with a non-`Ok` status also land in
/// `incomplete_visits` — the paper's point is that these denominators
/// must be reported alongside every measurement table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrawlHistoryRecord {
    /// Stable visit identifier (the site's rank in the crawl list).
    pub visit_id: u64,
    pub site_url: String,
    pub status: CrawlStatus,
    /// Failure reason string (e.g. `browser_crash`); empty when `Ok`.
    pub error: String,
    /// Visit attempts consumed (0 for interrupted sites).
    pub attempts: u32,
}

impl CrawlHistoryRecord {
    pub fn ok(visit_id: u64, site_url: &str, attempts: u32) -> CrawlHistoryRecord {
        CrawlHistoryRecord {
            visit_id,
            site_url: site_url.to_string(),
            status: CrawlStatus::Ok,
            error: String::new(),
            attempts,
        }
    }

    pub fn failed(
        visit_id: u64,
        site_url: &str,
        error: &str,
        attempts: u32,
    ) -> CrawlHistoryRecord {
        CrawlHistoryRecord {
            visit_id,
            site_url: site_url.to_string(),
            status: CrawlStatus::Failed,
            error: error.to_string(),
            attempts,
        }
    }

    pub fn interrupted(visit_id: u64, site_url: &str) -> CrawlHistoryRecord {
        CrawlHistoryRecord {
            visit_id,
            site_url: site_url.to_string(),
            status: CrawlStatus::Interrupted,
            error: String::new(),
            attempts: 0,
        }
    }
}

/// One recorded JavaScript API access.
#[derive(Clone, Debug)]
pub struct JsCallRecord {
    /// Symbol accessed, e.g. `window.navigator.userAgent`.
    pub symbol: String,
    pub operation: JsOperation,
    /// Stringified value/arguments preview.
    pub value: String,
    /// Script the access originated from (stack-derived; instrument frames
    /// skipped). Spoofable by the fake-data attack — unlike `page_url`.
    pub script_url: String,
    /// The visited page. Set host-side by OpenWPM, *not* from event data —
    /// this is why the injection attack cannot spoof it (Sec. 5.2).
    pub page_url: String,
    pub time_ms: u64,
}

/// A saved JavaScript file (the HTTP instrument's script store).
#[derive(Clone, Debug)]
pub struct SavedScript {
    pub url: String,
    /// Shared with the response it was saved from.
    pub body: std::sync::Arc<str>,
    pub page_url: String,
}

/// The embedded record store.
#[derive(Clone, Debug, Default)]
pub struct RecordStore {
    pub js_calls: Vec<JsCallRecord>,
    pub http_requests: Vec<HttpRequest>,
    pub http_responses: Vec<HttpResponse>,
    pub saved_scripts: Vec<SavedScript>,
    pub cookies: Vec<Cookie>,
    /// Visit-level completion accounting (`crawl_history` rows).
    pub crawl_history: Vec<CrawlHistoryRecord>,
    /// Instrument events dropped because their payload was malformed
    /// (e.g. an unknown operation string). A non-zero count flags either
    /// an instrument bug or a page tampering with the event channel.
    pub malformed_events: u64,
}

impl RecordStore {
    pub fn new() -> RecordStore {
        RecordStore::default()
    }

    /// Escape a string for inclusion in a single-quoted SQL literal.
    /// Doubling `'` is the SQLite-correct quoting; control characters are
    /// stripped so multi-statement smuggling via `\n;` is inert too.
    pub fn sql_escape(s: &str) -> String {
        s.chars()
            .filter(|c| !c.is_control())
            .collect::<String>()
            .replace('\'', "''")
    }

    /// Render a `javascript` table INSERT for a record — the persistence
    /// path whose sanitisation Sec. 5.3 validated.
    pub fn render_js_insert(rec: &JsCallRecord) -> String {
        format!(
            "INSERT INTO javascript (symbol, operation, value, script_url, page_url, time_ms) \
             VALUES ('{}', '{}', '{}', '{}', '{}', {});",
            Self::sql_escape(&rec.symbol),
            rec.operation.as_str(),
            Self::sql_escape(&rec.value),
            Self::sql_escape(&rec.script_url),
            Self::sql_escape(&rec.page_url),
            rec.time_ms
        )
    }

    /// Number of distinct symbols recorded (used by coverage analyses).
    pub fn distinct_symbols(&self) -> usize {
        let mut set: Vec<&str> = self.js_calls.iter().map(|r| r.symbol.as_str()).collect();
        set.sort_unstable();
        set.dedup();
        set.len()
    }

    /// Records whose symbol matches a suffix (e.g. `.webdriver`).
    pub fn calls_to<'a>(
        &'a self,
        symbol_suffix: &'a str,
    ) -> impl Iterator<Item = &'a JsCallRecord> + 'a {
        self.js_calls.iter().filter(move |r| r.symbol.ends_with(symbol_suffix))
    }

    /// Render the full crawl database as an SQL dump — schema plus one
    /// INSERT per record, all string fields escaped. This is the
    /// persistence surface whose injection-safety Sec. 5.3 verified.
    pub fn render_sql_dump(&self) -> String {
        let mut out = String::from(
            "CREATE TABLE javascript (symbol TEXT, operation TEXT, value TEXT, \
             script_url TEXT, page_url TEXT, time_ms INTEGER);\n\
             CREATE TABLE http_requests (url TEXT, page_url TEXT, resource_type TEXT, \
             method TEXT, time_ms INTEGER);\n\
             CREATE TABLE javascript_files (url TEXT, page_url TEXT, body TEXT);\n\
             CREATE TABLE cookies (name TEXT, value TEXT, domain TEXT, page_domain TEXT, \
             expires_in_s INTEGER);\n\
             CREATE TABLE crawl_history (visit_id INTEGER, site_url TEXT, \
             command_status TEXT, error TEXT, retry_number INTEGER);\n\
             CREATE TABLE incomplete_visits (visit_id INTEGER);\n",
        );
        for rec in &self.js_calls {
            out.push_str(&Self::render_js_insert(rec));
            out.push('\n');
        }
        for req in &self.http_requests {
            out.push_str(&format!(
                "INSERT INTO http_requests VALUES ('{}', '{}', '{}', '{}', {});\n",
                Self::sql_escape(&req.url.to_string()),
                Self::sql_escape(&req.page.to_string()),
                req.resource_type.as_str(),
                req.method,
                req.time_ms
            ));
        }
        for s in &self.saved_scripts {
            out.push_str(&format!(
                "INSERT INTO javascript_files VALUES ('{}', '{}', '{}');\n",
                Self::sql_escape(&s.url),
                Self::sql_escape(&s.page_url),
                Self::sql_escape(&s.body)
            ));
        }
        for c in &self.cookies {
            out.push_str(&format!(
                "INSERT INTO cookies VALUES ('{}', '{}', '{}', '{}', {});\n",
                Self::sql_escape(&c.name),
                Self::sql_escape(&c.value),
                Self::sql_escape(&c.domain),
                Self::sql_escape(&c.page_domain),
                c.expires_in_s.map(|e| e as i64).unwrap_or(-1)
            ));
        }
        out.push_str(&Self::render_crawl_history(&self.crawl_history));
        out
    }

    /// Render `crawl_history` INSERTs plus `incomplete_visits` rows for
    /// every non-ok visit — the same completeness bookkeeping OpenWPM
    /// keeps, through the same escaped-literal persistence path.
    pub fn render_crawl_history(records: &[CrawlHistoryRecord]) -> String {
        let mut out = String::new();
        for r in records {
            out.push_str(&format!(
                "INSERT INTO crawl_history VALUES ({}, '{}', '{}', '{}', {});\n",
                r.visit_id,
                Self::sql_escape(&r.site_url),
                r.status.as_str(),
                Self::sql_escape(&r.error),
                r.attempts
            ));
        }
        for r in records {
            if r.status != CrawlStatus::Ok {
                out.push_str(&format!(
                    "INSERT INTO incomplete_visits VALUES ({});\n",
                    r.visit_id
                ));
            }
        }
        out
    }

    /// Fingerprint this store for the crawl archive: per-table record
    /// counts plus one order-dependent digest over every field of every
    /// record. See [`StoreCapture`].
    pub fn capture(&self) -> StoreCapture {
        StoreCapture::of(self)
    }

    /// Merge another store (after subpage visits).
    pub fn merge(&mut self, other: RecordStore) {
        self.js_calls.extend(other.js_calls);
        self.http_requests.extend(other.http_requests);
        self.http_responses.extend(other.http_responses);
        self.saved_scripts.extend(other.saved_scripts);
        self.cookies.extend(other.cookies);
        self.crawl_history.extend(other.crawl_history);
        self.malformed_events += other.malformed_events;
    }
}

/// A [`RecordStore`] fingerprint, captured per visit by the crawl archive
/// and re-computed during replay: per-table counts plus an order-dependent
/// FNV-64 digest over every field of every record. A replayed visit whose
/// re-derived records differ from the recorded ones in *any* field — an
/// extra JS call, a shifted timestamp, a changed cookie value — produces a
/// different digest, which the replay verifier reports as a divergence.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreCapture {
    pub js_calls: u64,
    pub http_requests: u64,
    pub http_responses: u64,
    pub saved_scripts: u64,
    pub cookies: u64,
    pub crawl_history: u64,
    pub malformed_events: u64,
    /// Order-dependent FNV-64 over all record fields.
    pub digest: u64,
}

/// Archive encoding separator (ASCII `GS`): safe inside manifest payloads,
/// which only reject `US` and newlines.
const CAPTURE_SEP: char = '\x1d';

impl StoreCapture {
    /// Fingerprint `store`. The digest folds the SQL dump (which covers
    /// js_calls, http_requests, saved scripts, cookies and crawl_history
    /// field-by-field) and then each HTTP response's wire line — responses
    /// are the one table the dump omits, and their bodies enter via the
    /// body hash in [`netsim::wire::encode_response`].
    pub fn of(store: &RecordStore) -> StoreCapture {
        let mut h = obs::fnv1a(store.render_sql_dump().as_bytes());
        for resp in &store.http_responses {
            h = obs::fnv1a_fold(h, netsim::wire::encode_response(resp).as_bytes());
        }
        h = obs::fnv1a_fold(h, store.malformed_events.to_string().as_bytes());
        StoreCapture {
            js_calls: store.js_calls.len() as u64,
            http_requests: store.http_requests.len() as u64,
            http_responses: store.http_responses.len() as u64,
            saved_scripts: store.saved_scripts.len() as u64,
            cookies: store.cookies.len() as u64,
            crawl_history: store.crawl_history.len() as u64,
            malformed_events: store.malformed_events,
            digest: h,
        }
    }

    /// Archive encoding: GS-joined counts then the digest in hex.
    pub fn encode(&self) -> String {
        let s = CAPTURE_SEP;
        format!(
            "{}{s}{}{s}{}{s}{}{s}{}{s}{}{s}{}{s}{:016x}",
            self.js_calls,
            self.http_requests,
            self.http_responses,
            self.saved_scripts,
            self.cookies,
            self.crawl_history,
            self.malformed_events,
            self.digest
        )
    }

    /// Inverse of [`StoreCapture::encode`]; `None` on malformed input.
    pub fn decode(s: &str) -> Option<StoreCapture> {
        let parts: Vec<&str> = s.split(CAPTURE_SEP).collect();
        let [a, b, c, d, e, f, g, digest] = parts.as_slice() else {
            return None;
        };
        Some(StoreCapture {
            js_calls: a.parse().ok()?,
            http_requests: b.parse().ok()?,
            http_responses: c.parse().ok()?,
            saved_scripts: d.parse().ok()?,
            cookies: e.parse().ok()?,
            crawl_history: f.parse().ok()?,
            malformed_events: g.parse().ok()?,
            digest: u64::from_str_radix(digest, 16).ok()?,
        })
    }

    /// Total records across all tables (diff reporting).
    pub fn total_records(&self) -> u64 {
        self.js_calls
            + self.http_requests
            + self.http_responses
            + self.saved_scripts
            + self.cookies
            + self.crawl_history
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(value: &str) -> JsCallRecord {
        JsCallRecord {
            symbol: "window.navigator.userAgent".into(),
            operation: JsOperation::Get,
            value: value.into(),
            script_url: "https://site.test/app.js".into(),
            page_url: "https://site.test/".into(),
            time_ms: 12,
        }
    }

    /// Count semicolons that appear *outside* string literals — i.e.
    /// statement terminators an injection would need to smuggle in.
    fn terminators_outside_literals(sql: &str) -> usize {
        let mut chars = sql.chars().peekable();
        let mut in_literal = false;
        let mut terminators = 0;
        while let Some(c) = chars.next() {
            match c {
                '\'' => {
                    if in_literal && chars.peek() == Some(&'\'') {
                        chars.next(); // doubled quote: still inside literal
                    } else {
                        in_literal = !in_literal;
                    }
                }
                ';' if !in_literal => terminators += 1,
                _ => {}
            }
        }
        assert!(!in_literal, "unterminated literal in: {sql}");
        terminators
    }

    #[test]
    fn sql_injection_inputs_are_inert() {
        let evil = rec("x'); DROP TABLE javascript; --");
        let sql = RecordStore::render_js_insert(&evil);
        // The payload stays data inside one literal: exactly one statement
        // terminator survives outside literals.
        assert_eq!(terminators_outside_literals(&sql), 1);
        assert!(sql.contains("x''); DROP TABLE"));
        assert!(sql.ends_with(");"));
    }

    #[test]
    fn benign_insert_has_single_terminator() {
        let sql = RecordStore::render_js_insert(&rec("plain value"));
        assert_eq!(terminators_outside_literals(&sql), 1);
    }

    #[test]
    fn control_characters_stripped() {
        let evil = rec("a\n; DELETE FROM javascript\rb");
        let sql = RecordStore::render_js_insert(&evil);
        assert!(!sql.contains('\n'));
        assert!(!sql.contains('\r'));
    }

    #[test]
    fn distinct_symbols_and_filters() {
        let mut store = RecordStore::new();
        store.js_calls.push(rec("a"));
        store.js_calls.push(rec("b"));
        store.js_calls.push(JsCallRecord {
            symbol: "window.navigator.webdriver".into(),
            ..rec("c")
        });
        assert_eq!(store.distinct_symbols(), 2);
        assert_eq!(store.calls_to(".webdriver").count(), 1);
        assert_eq!(store.calls_to(".userAgent").count(), 2);
    }

    #[test]
    fn sql_dump_contains_schema_and_rows() {
        let mut store = RecordStore::new();
        store.js_calls.push(rec("v'); DROP TABLE cookies; --"));
        store.cookies.push(netsim::Cookie {
            name: "uid".into(),
            value: "x'y".into(),
            domain: "t.io".into(),
            page_domain: "a.com".into(),
            expires_in_s: Some(100),
        });
        let dump = store.render_sql_dump();
        assert!(dump.contains("CREATE TABLE javascript"));
        assert!(dump.contains("INSERT INTO javascript "));
        assert!(dump.contains("INSERT INTO cookies"));
        // Escaping holds across every table.
        assert!(dump.contains("x''y"));
        assert!(dump.contains("v''); DROP TABLE"));
    }

    #[test]
    fn merge_concatenates() {
        let mut a = RecordStore::new();
        a.js_calls.push(rec("x"));
        a.malformed_events = 2;
        let mut b = RecordStore::new();
        b.js_calls.push(rec("y"));
        b.malformed_events = 3;
        b.crawl_history.push(CrawlHistoryRecord::ok(1, "https://a.test/", 1));
        a.merge(b);
        assert_eq!(a.js_calls.len(), 2);
        assert_eq!(a.malformed_events, 5);
        assert_eq!(a.crawl_history.len(), 1);
    }

    #[test]
    fn js_operation_parse_rejects_unknown_strings() {
        assert_eq!(JsOperation::parse("get"), Some(JsOperation::Get));
        assert_eq!(JsOperation::parse("set"), Some(JsOperation::Set));
        assert_eq!(JsOperation::parse("call"), Some(JsOperation::Call));
        assert_eq!(JsOperation::parse(""), None);
        assert_eq!(JsOperation::parse("GET"), None);
        assert_eq!(JsOperation::parse("delete"), None);
        assert_eq!(JsOperation::parse("get'); DROP TABLE javascript; --"), None);
    }

    #[test]
    fn crawl_history_renders_with_incomplete_visits() {
        let records = vec![
            CrawlHistoryRecord::ok(0, "https://w000000.com/", 1),
            CrawlHistoryRecord::failed(1, "https://w000001.com/", "browser_crash", 3),
            CrawlHistoryRecord::interrupted(2, "https://w000002.com/"),
        ];
        let sql = RecordStore::render_crawl_history(&records);
        assert!(sql.contains(
            "INSERT INTO crawl_history VALUES (0, 'https://w000000.com/', 'ok', '', 1);"
        ));
        assert!(sql.contains("'failed', 'browser_crash', 3"));
        assert!(sql.contains("'interrupted', '', 0"));
        // Only the two non-ok visits appear in incomplete_visits.
        assert!(!sql.contains("INSERT INTO incomplete_visits VALUES (0);"));
        assert!(sql.contains("INSERT INTO incomplete_visits VALUES (1);"));
        assert!(sql.contains("INSERT INTO incomplete_visits VALUES (2);"));
    }

    #[test]
    fn crawl_history_escaping_holds() {
        let evil = CrawlHistoryRecord::failed(
            7,
            "https://x.test/'); DROP TABLE crawl_history; --",
            "nav'err",
            2,
        );
        let sql = RecordStore::render_crawl_history(&[evil]);
        assert!(sql.contains("''); DROP TABLE"));
        assert!(sql.contains("nav''err"));
    }

    #[test]
    fn capture_roundtrip_and_field_sensitivity() {
        let mut store = RecordStore::new();
        store.js_calls.push(rec("v"));
        store.http_requests.push(HttpRequest {
            url: netsim::Url::parse("https://cdn.a.com/x.js").unwrap(),
            page: netsim::Url::parse("https://a.com/").unwrap().into(),
            resource_type: netsim::ResourceType::Script,
            method: "GET",
            time_ms: 5,
        });
        store.http_responses.push(HttpResponse {
            url: netsim::Url::parse("https://cdn.a.com/x.js").unwrap(),
            status: 200,
            content_type: "text/javascript".into(),
            body: "var x;".into(),
        });
        store.crawl_history.push(CrawlHistoryRecord::ok(0, "https://a.com/", 1));

        let cap = store.capture();
        assert_eq!(cap.js_calls, 1);
        assert_eq!(cap.http_requests, 1);
        assert_eq!(cap.http_responses, 1);
        assert_eq!(cap.crawl_history, 1);
        assert_eq!(cap.total_records(), 4);
        assert_eq!(StoreCapture::decode(&cap.encode()), Some(cap));

        // Any field change shifts the digest — including a response body,
        // which only enters via its hash.
        let mut tweaked = store.clone();
        tweaked.http_responses[0].body = "var y;".into();
        let cap2 = tweaked.capture();
        assert_eq!(cap.total_records(), cap2.total_records());
        assert_ne!(cap.digest, cap2.digest);

        let mut tweaked = store.clone();
        tweaked.js_calls[0].time_ms += 1;
        assert_ne!(cap.digest, tweaked.capture().digest);

        assert!(StoreCapture::decode("").is_none());
        assert!(StoreCapture::decode("1\x1d2").is_none());
    }

    #[test]
    fn sql_dump_includes_crawl_history_schema() {
        let mut store = RecordStore::new();
        store.crawl_history.push(CrawlHistoryRecord::failed(
            3,
            "https://w000003.com/",
            "timeout",
            3,
        ));
        let dump = store.render_sql_dump();
        assert!(dump.contains("CREATE TABLE crawl_history"));
        assert!(dump.contains("CREATE TABLE incomplete_visits"));
        assert!(dump.contains("INSERT INTO crawl_history VALUES (3,"));
        assert!(dump.contains("INSERT INTO incomplete_visits VALUES (3);"));
    }
}
