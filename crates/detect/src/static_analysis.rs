//! Static analysis of collected scripts (paper Sec. 4.1 + Appx. B).
//!
//! Pipeline: preprocess (decode hex/unicode escapes, strip comments) then
//! match the patterns of Table 13. The paper iterated on pattern design to
//! kill false positives — the naive literal `webdriver` matches benign
//! strings, while the context-aware `navigator.webdriver` /
//! `navigator["webdriver"]` forms do not. All evaluated patterns are
//! implemented so Table 13 can be regenerated.
//!
//! Two interchangeable match engines drive the patterns ([`MatcherKind`]):
//!
//! * **Naive** — the paper-literal reference: every pattern runs its own
//!   [`StaticPattern::matches`] pass over the preprocessed source
//!   (O(patterns × bytes) per script).
//! * **Automaton** (default) — all patterns of a set compiled once into a
//!   [`matcher::CompiledMatcher`] (Aho-Corasick trie → failure links →
//!   dense byte-class DFA); each script is scanned in a single pass, with
//!   anchored-pattern guards (the undelimited-`webdriver` neighbour check)
//!   confirmed per candidate hit so verdicts stay byte-for-byte equal to
//!   the naive engine. Two sets are compiled separately: the production
//!   set [`classify_with`] uses and the full Table 13 ablation set behind
//!   [`pattern_matches`].
//!
//! Per-script verdicts are additionally memoised by FNV-64 body hash
//! ([`DetectCtx::classify_memo`]): scripts are shared across sites and
//! subpages, so each distinct body is preprocessed and scanned exactly
//! once per crawl, also when workers race on it. The `match.*` metrics
//! (scripts, bytes, candidate/confirmed hits, memo hit/miss) are
//! digest-excluded like `cache.*`.

use std::cell::RefCell;
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use matcher::{CompiledMatcher, PatternDef};

/// The patterns evaluated in Appx. B (Table 13), in paper order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StaticPattern {
    /// Bare literal `webdriver` — false-positive prone.
    WebdriverLiteral,
    /// `instrumentFingerprintingApis`.
    InstrumentFingerprintingApis,
    /// `getInstrumentJS`.
    GetInstrumentJs,
    /// `jsInstruments`.
    JsInstruments,
    /// `webdriver` not adjacent to `_` or `-` — still false-positive prone.
    WebdriverUndelimited,
    /// `navigator.webdriver`.
    NavigatorDotWebdriver,
    /// `navigator["webdriver"]` / `navigator['webdriver']`.
    NavigatorIndexedWebdriver,
}

impl StaticPattern {
    pub fn all() -> &'static [StaticPattern] {
        &[
            StaticPattern::WebdriverLiteral,
            StaticPattern::InstrumentFingerprintingApis,
            StaticPattern::GetInstrumentJs,
            StaticPattern::JsInstruments,
            StaticPattern::WebdriverUndelimited,
            StaticPattern::NavigatorDotWebdriver,
            StaticPattern::NavigatorIndexedWebdriver,
        ]
    }

    pub fn name(&self) -> &'static str {
        match self {
            StaticPattern::WebdriverLiteral => "webdriver",
            StaticPattern::InstrumentFingerprintingApis => "instrumentFingerprintingApis",
            StaticPattern::GetInstrumentJs => "getInstrumentJS",
            StaticPattern::JsInstruments => "jsInstruments",
            StaticPattern::WebdriverUndelimited => "(?<!_|-)webdriver(?!_|-)",
            StaticPattern::NavigatorDotWebdriver => "navigator.webdriver",
            StaticPattern::NavigatorIndexedWebdriver => r#"navigator\[["']webdriver["']\]"#,
        }
    }

    /// Whether the paper found this pattern to produce false positives.
    pub fn fp_prone(&self) -> bool {
        matches!(self, StaticPattern::WebdriverLiteral | StaticPattern::WebdriverUndelimited)
    }

    /// Match against *preprocessed* source.
    pub fn matches(&self, src: &str) -> bool {
        match self {
            StaticPattern::WebdriverLiteral => src.contains("webdriver"),
            StaticPattern::InstrumentFingerprintingApis => {
                src.contains("instrumentFingerprintingApis")
            }
            StaticPattern::GetInstrumentJs => src.contains("getInstrumentJS"),
            StaticPattern::JsInstruments => src.contains("jsInstruments"),
            StaticPattern::WebdriverUndelimited => {
                find_all(src, "webdriver").into_iter().any(|i| {
                    let before = src[..i].chars().next_back();
                    let after = src[i + "webdriver".len()..].chars().next();
                    !matches!(before, Some('_') | Some('-'))
                        && !matches!(after, Some('_') | Some('-'))
                })
            }
            StaticPattern::NavigatorDotWebdriver => src.contains("navigator.webdriver"),
            StaticPattern::NavigatorIndexedWebdriver => {
                src.contains(r#"navigator["webdriver"]"#) || src.contains("navigator['webdriver']")
            }
        }
    }
}

fn find_all(haystack: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut start = 0;
    while let Some(i) = haystack[start..].find(needle) {
        out.push(start + i);
        start += i + 1;
    }
    out
}

// --------------------------------------------------------- match engines

/// Which engine drives the static patterns. Both produce byte-identical
/// verdicts (the ablation suites assert it); the automaton is the
/// throughput backend, the naive engine the paper-literal oracle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatcherKind {
    /// Independent per-pattern `contains`-style passes (reference oracle).
    Naive,
    /// One compiled multi-pattern automaton pass per script (default).
    Automaton,
}

/// The literal set and anchor guard implementing one Table 13 pattern in
/// the automaton — the semantic layer that keeps compiled matching in
/// exact parity with [`StaticPattern::matches`].
fn pattern_def(p: StaticPattern) -> PatternDef {
    match p {
        StaticPattern::WebdriverLiteral => PatternDef::substring("webdriver"),
        StaticPattern::InstrumentFingerprintingApis => {
            PatternDef::substring("instrumentFingerprintingApis")
        }
        StaticPattern::GetInstrumentJs => PatternDef::substring("getInstrumentJS"),
        StaticPattern::JsInstruments => PatternDef::substring("jsInstruments"),
        StaticPattern::WebdriverUndelimited => PatternDef::undelimited("webdriver", b"_-"),
        StaticPattern::NavigatorDotWebdriver => PatternDef::substring("navigator.webdriver"),
        StaticPattern::NavigatorIndexedWebdriver => {
            PatternDef::alternation(&[r#"navigator["webdriver"]"#, "navigator['webdriver']"])
        }
    }
}

/// The production pattern set [`classify_with`] drives: the five
/// precision patterns behind [`StaticFinding`], plus the naive bare
/// literal that feeds the `static_identified` (false-positive-prone)
/// column of Table 5. Order defines the automaton's result bits.
const PRODUCTION_SET: &[StaticPattern] = &[
    StaticPattern::NavigatorDotWebdriver,
    StaticPattern::NavigatorIndexedWebdriver,
    StaticPattern::GetInstrumentJs,
    StaticPattern::InstrumentFingerprintingApis,
    StaticPattern::JsInstruments,
    StaticPattern::WebdriverLiteral,
];

/// Compile a pattern set under the `detect.static.build` phase, counting
/// the catalogue size once per compiled set.
fn build_set(pats: &[StaticPattern]) -> CompiledMatcher {
    let _ph = obs::prof::enter(&obs::prof::DETECT_STATIC_BUILD);
    let defs: Vec<PatternDef> = pats.iter().map(|p| pattern_def(*p)).collect();
    let m = CompiledMatcher::build(&defs);
    obs::add("match.patterns", pats.len() as u64);
    m
}

fn production_matcher() -> &'static CompiledMatcher {
    static M: OnceLock<CompiledMatcher> = OnceLock::new();
    M.get_or_init(|| build_set(PRODUCTION_SET))
}

fn table13_matcher() -> &'static CompiledMatcher {
    static M: OnceLock<CompiledMatcher> = OnceLock::new();
    M.get_or_init(|| build_set(StaticPattern::all()))
}

/// Match one Table 13 pattern against preprocessed source under an
/// explicit engine — the ablation entry point Table 13 regeneration uses.
pub fn pattern_matches_with(kind: MatcherKind, pat: StaticPattern, pre: &str) -> bool {
    match kind {
        MatcherKind::Naive => pat.matches(pre),
        MatcherKind::Automaton => {
            let idx = StaticPattern::all()
                .iter()
                .position(|p| *p == pat)
                .expect("every pattern is in the Table 13 set");
            table13_matcher().scan(pre).matched(idx)
        }
    }
}

/// [`pattern_matches_with`] under the current [`DetectCtx`]'s engine.
pub fn pattern_matches(pat: StaticPattern, pre: &str) -> bool {
    pattern_matches_with(with_current(|c| c.matcher), pat, pre)
}

/// Preprocess a script: decode `\xNN` / `\uNNNN` escapes and strip
/// comments, undoing the "straightforward obfuscation" the paper's
/// pipeline handles (Sec. 4.1.3, *Preprocessing for static analysis*).
pub fn preprocess(src: &str) -> String {
    strip_comments(&decode_escapes(src))
}

/// Decode hex and unicode escapes wherever they appear.
pub fn decode_escapes(src: &str) -> String {
    let bytes = src.as_bytes();
    let mut out = String::with_capacity(src.len());
    let mut i = 0;
    // Only slice when the escape body is all ASCII hex digits — a `\x`
    // followed by multi-byte UTF-8 must pass through untouched.
    let hex_run = |start: usize, len: usize| -> Option<&str> {
        let end = start + len;
        if end <= bytes.len() && bytes[start..end].iter().all(u8::is_ascii_hexdigit) {
            Some(&src[start..end])
        } else {
            None
        }
    };
    while i < bytes.len() {
        if bytes[i] == b'\\' && bytes.get(i + 1) == Some(&b'x') {
            if let Some(hex) = hex_run(i + 2, 2) {
                if let Ok(v) = u8::from_str_radix(hex, 16) {
                    if v.is_ascii() {
                        out.push(v as char);
                        i += 4;
                        continue;
                    }
                }
            }
        }
        if bytes[i] == b'\\' && bytes.get(i + 1) == Some(&b'u') {
            if let Some(hex) = hex_run(i + 2, 4) {
                if let Ok(v) = u32::from_str_radix(hex, 16) {
                    if let Some(c) = char::from_u32(v) {
                        out.push(c);
                        i += 6;
                        continue;
                    }
                }
            }
        }
        // Copy one UTF-8 scalar.
        let ch = src[i..].chars().next().unwrap();
        out.push(ch);
        i += ch.len_utf8();
    }
    out
}

/// Remove `//` and `/* */` comments, preserving string literals.
///
/// Tracks a context stack so escaped quotes (`\"`, `\'`) never terminate a
/// string early, non-ASCII characters survive verbatim everywhere, and
/// template literals nest correctly: a `${ … }` interpolation re-enters
/// code context (comments inside it are stripped, strings and further
/// templates inside it are preserved).
pub fn strip_comments(src: &str) -> String {
    let chars: Vec<char> = src.chars().collect();
    let mut out = String::with_capacity(src.len());
    /// Parser context. `Code(None)` is top-level source; `Code(Some(d))` a
    /// template-interpolation body with `d` open braces beyond its `${`.
    #[derive(Clone, Copy)]
    enum Ctx {
        Code(Option<u32>),
        Str(char),
        Template,
    }
    let mut stack = vec![Ctx::Code(None)];
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        match *stack.last().expect("context stack never empties") {
            Ctx::Code(depth) => {
                if c == '"' || c == '\'' {
                    stack.push(Ctx::Str(c));
                    out.push(c);
                    i += 1;
                } else if c == '`' {
                    stack.push(Ctx::Template);
                    out.push(c);
                    i += 1;
                } else if c == '/' && chars.get(i + 1) == Some(&'/') {
                    while i < chars.len() && chars[i] != '\n' {
                        i += 1;
                    }
                } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                    i += 2;
                    while i + 1 < chars.len() && !(chars[i] == '*' && chars[i + 1] == '/') {
                        i += 1;
                    }
                    i = (i + 2).min(chars.len());
                } else {
                    if c == '{' {
                        if let Some(d) = depth {
                            *stack.last_mut().unwrap() = Ctx::Code(Some(d + 1));
                        }
                    } else if c == '}' {
                        match depth {
                            // The `}` closing the interpolation: back into
                            // the surrounding template literal.
                            Some(0) => {
                                stack.pop();
                            }
                            Some(d) => *stack.last_mut().unwrap() = Ctx::Code(Some(d - 1)),
                            None => {}
                        }
                    }
                    out.push(c);
                    i += 1;
                }
            }
            Ctx::Str(q) => {
                out.push(c);
                if c == '\\' && i + 1 < chars.len() {
                    out.push(chars[i + 1]);
                    i += 2;
                    continue;
                }
                if c == q {
                    stack.pop();
                }
                i += 1;
            }
            Ctx::Template => {
                if c == '\\' && i + 1 < chars.len() {
                    out.push(c);
                    out.push(chars[i + 1]);
                    i += 2;
                } else if c == '$' && chars.get(i + 1) == Some(&'{') {
                    out.push_str("${");
                    stack.push(Ctx::Code(Some(0)));
                    i += 2;
                } else {
                    out.push(c);
                    if c == '`' {
                        stack.pop();
                    }
                    i += 1;
                }
            }
        }
    }
    out
}

/// Result of statically analysing one script with the final pattern set
/// (the non-FP-prone patterns the paper settled on).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StaticFinding {
    /// Script probes `navigator.webdriver` (Selenium detector).
    pub selenium: bool,
    /// OpenWPM-specific property names found.
    pub openwpm_props: Vec<&'static str>,
}

impl StaticFinding {
    pub fn is_detector(&self) -> bool {
        self.selenium || !self.openwpm_props.is_empty()
    }
}

/// Full static verdict for one script: the production finding plus the
/// naive bare-`webdriver` flag (the Table 5 "identified" numerator input),
/// both derived from one preprocessing pass.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ScriptVerdict {
    pub finding: StaticFinding,
    /// The false-positive-prone [`StaticPattern::WebdriverLiteral`]
    /// matched.
    pub naive_webdriver: bool,
}

/// Evaluate the production set over preprocessed source with independent
/// per-pattern passes (the reference oracle).
fn verdict_naive(pre: &str) -> ScriptVerdict {
    let selenium = StaticPattern::NavigatorDotWebdriver.matches(pre)
        || StaticPattern::NavigatorIndexedWebdriver.matches(pre);
    let mut openwpm_props = Vec::new();
    for (pat, name) in [
        (StaticPattern::GetInstrumentJs, "getInstrumentJS"),
        (StaticPattern::InstrumentFingerprintingApis, "instrumentFingerprintingApis"),
        (StaticPattern::JsInstruments, "jsInstruments"),
    ] {
        if pat.matches(pre) {
            openwpm_props.push(name);
        }
    }
    let naive_webdriver = StaticPattern::WebdriverLiteral.matches(pre);
    ScriptVerdict { finding: StaticFinding { selenium, openwpm_props }, naive_webdriver }
}

/// Evaluate the production set in one automaton pass. Bit positions follow
/// [`PRODUCTION_SET`]; the property-name push order matches
/// [`verdict_naive`] exactly so verdicts compare equal structurally.
fn verdict_automaton(pre: &str) -> ScriptVerdict {
    let set = production_matcher().scan(pre);
    obs::add("match.candidate_hits", set.stats.candidate_hits);
    obs::add("match.confirmed_hits", set.stats.confirmed_hits);
    let selenium = set.matched(0) || set.matched(1);
    let mut openwpm_props = Vec::new();
    for (idx, name) in [
        (2, "getInstrumentJS"),
        (3, "instrumentFingerprintingApis"),
        (4, "jsInstruments"),
    ] {
        if set.matched(idx) {
            openwpm_props.push(name);
        }
    }
    ScriptVerdict {
        finding: StaticFinding { selenium, openwpm_props },
        naive_webdriver: set.matched(5),
    }
}

/// Classify one script under an explicit engine: preprocess, then one
/// scan of the production set.
pub fn classify_with(kind: MatcherKind, src: &str) -> ScriptVerdict {
    let _ph = obs::prof::enter(&obs::prof::DETECT_STATIC);
    let pre = preprocess(src);
    let _ps = obs::prof::enter(&obs::prof::DETECT_STATIC_SCAN);
    obs::add("match.scripts", 1);
    obs::add("match.bytes", pre.len() as u64);
    match kind {
        MatcherKind::Naive => verdict_naive(&pre),
        MatcherKind::Automaton => verdict_automaton(&pre),
    }
}

/// Classify one script under the current [`DetectCtx`]'s engine (not
/// memoised).
pub fn classify(src: &str) -> ScriptVerdict {
    classify_with(with_current(|c| c.matcher), src)
}

// ------------------------------------------------------ detection context

/// One crawl's static-analysis settings: the match engine and the verdict
/// memo filled under it. The memo lives next to its engine, so verdicts
/// one engine computed are never served to a crawl running the other.
///
/// A thread classifies under the context it [`entered`](DetectCtx::enter),
/// or under the process default when it entered none. The default uses
/// the automaton; the naive oracle is reachable only through an explicit
/// context or [`set_default_matcher`].
#[derive(Clone)]
pub struct DetectCtx {
    matcher: MatcherKind,
    memo: Arc<Mutex<HashMap<u64, Arc<OnceLock<ScriptVerdict>>>>>,
}

impl Default for DetectCtx {
    /// The process default engine with an empty memo.
    fn default() -> DetectCtx {
        DetectCtx::new(with_default(|d| d.matcher))
    }
}

impl DetectCtx {
    /// `matcher` with an empty verdict memo.
    pub fn new(matcher: MatcherKind) -> DetectCtx {
        DetectCtx { matcher, memo: Arc::default() }
    }

    pub fn matcher(&self) -> MatcherKind {
        self.matcher
    }

    /// The calling thread's context: the one it entered, else the process
    /// default.
    pub fn current() -> DetectCtx {
        with_current(DetectCtx::clone)
    }

    /// Make this the calling thread's context until the guard drops.
    pub fn enter(&self) -> DetectGuard {
        let prev = CURRENT.with(|c| c.replace(Some(self.clone())));
        DetectGuard { prev: Some(prev), _not_send: PhantomData }
    }

    /// Classify one script, memoised by its FNV-64 body hash (the script
    /// identity the scan already computes). Scripts are shared across
    /// sites and subpages, so each distinct body is preprocessed and
    /// scanned once per context; repeats are a map lookup. Verdicts are a
    /// deterministic function of the body, so the memo is invisible in
    /// every measured artifact. Classification runs outside the map lock,
    /// in the body's own once-cell: a worker racing on a body being
    /// classified waits for that verdict and counts a hit, so the
    /// `match.*` counters do not move with scheduling.
    pub fn classify_memo(&self, src: &str, body_hash: u64) -> ScriptVerdict {
        let cell = Arc::clone(
            self.memo.lock().unwrap_or_else(|e| e.into_inner()).entry(body_hash).or_default(),
        );
        let mut missed = false;
        let v = cell.get_or_init(|| {
            missed = true;
            classify_with(self.matcher, src)
        });
        obs::add(if missed { "match.memo.miss" } else { "match.memo.hit" }, 1);
        v.clone()
    }
}

/// Restores the previously current [`DetectCtx`] on drop.
#[must_use = "the context is current only while the guard lives"]
pub struct DetectGuard {
    prev: Option<Option<DetectCtx>>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for DetectGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            let _exited = CURRENT.with(|c| c.replace(prev));
        }
    }
}

thread_local! {
    static CURRENT: RefCell<Option<DetectCtx>> = const { RefCell::new(None) };
}

fn process_default() -> &'static RwLock<DetectCtx> {
    static DEFAULT: OnceLock<RwLock<DetectCtx>> = OnceLock::new();
    DEFAULT.get_or_init(|| RwLock::new(DetectCtx::new(MatcherKind::Automaton)))
}

fn with_default<R>(f: impl FnOnce(&DetectCtx) -> R) -> R {
    f(&process_default().read().unwrap_or_else(|e| e.into_inner()))
}

fn with_current<R>(f: impl FnOnce(&DetectCtx) -> R) -> R {
    CURRENT.with(|c| match &*c.borrow() {
        Some(ctx) => f(ctx),
        None => with_default(f),
    })
}

/// [`DetectCtx::classify_memo`] under the current context.
pub fn classify_memo(src: &str, body_hash: u64) -> ScriptVerdict {
    with_current(|c| c.classify_memo(src, body_hash))
}

/// Change the process default engine. The default's memo goes with its
/// engine: switching engines starts an empty one. Threads inside an
/// entered [`DetectCtx`] are unaffected.
pub fn set_default_matcher(k: MatcherKind) {
    let mut d = process_default().write().unwrap_or_else(|e| e.into_inner());
    if d.matcher != k {
        *d = DetectCtx::new(k);
    }
}

/// Empty the process default context's verdict memo.
pub fn clear_verdict_memo() {
    with_default(|d| d.memo.lock().unwrap_or_else(|e| e.into_inner()).clear());
}

/// Analyse one script with the production pattern set.
pub fn analyse(src: &str) -> StaticFinding {
    classify(src).finding
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{self, Technique};

    #[test]
    fn plain_and_indexed_probes_found() {
        for t in [Technique::Plain, Technique::Indexed] {
            let src = corpus::selenium_detector(t, "https://bd.test/v");
            assert!(analyse(&src).selenium, "{t:?}");
        }
    }

    #[test]
    fn hex_escaped_probe_found_after_preprocessing() {
        let src = corpus::selenium_detector(Technique::HexEscaped, "https://bd.test/v");
        // Raw match fails…
        assert!(!StaticPattern::NavigatorIndexedWebdriver.matches(&src));
        // …the pipeline decodes it.
        assert!(analyse(&src).selenium);
    }

    #[test]
    fn constructed_probe_invisible_statically() {
        let src = corpus::selenium_detector(Technique::Constructed, "https://bd.test/v");
        assert!(!analyse(&src).selenium);
    }

    #[test]
    fn hover_gated_probe_found_statically() {
        // "Present but unexecuted" code is exactly what static analysis
        // catches and dynamic analysis misses.
        let src = corpus::selenium_detector(Technique::HoverGated, "https://bd.test/v");
        assert!(analyse(&src).selenium);
    }

    #[test]
    fn benign_webdriver_mentions_do_not_trip_precise_patterns() {
        let src = corpus::benign_webdriver_mention();
        let f = analyse(&src);
        assert!(!f.is_detector());
        // Naive patterns do trip — the Table 13 false positives.
        let pre = preprocess(&src);
        assert!(StaticPattern::WebdriverLiteral.matches(&pre));
        assert!(StaticPattern::WebdriverUndelimited.matches(&src));
    }

    #[test]
    fn underscore_delimited_webdriver_excluded_by_undelimited_pattern() {
        assert!(!StaticPattern::WebdriverUndelimited.matches("var x = my_webdriver_flag;"));
        assert!(StaticPattern::WebdriverUndelimited.matches("check(navigator.webdriver);"));
    }

    #[test]
    fn openwpm_props_found() {
        let src = corpus::openwpm_detector(
            &["jsInstruments", "getInstrumentJS"],
            Technique::Plain,
            "https://cheqzone.com/v",
        );
        let f = analyse(&src);
        assert_eq!(f.openwpm_props, vec!["getInstrumentJS", "jsInstruments"]);
        assert!(f.is_detector());
    }

    #[test]
    fn constructed_openwpm_probe_invisible() {
        let src = corpus::openwpm_detector(
            &["instrumentFingerprintingApis"],
            Technique::Constructed,
            "https://google.com/recaptcha/v",
        );
        assert!(analyse(&src).openwpm_props.is_empty());
    }

    #[test]
    fn comment_stripping_preserves_strings() {
        let src = "var a = 'http://x/*not a comment*/'; // real comment\nvar b = 1;";
        let out = strip_comments(src);
        assert!(out.contains("not a comment"));
        assert!(!out.contains("real comment"));
    }

    #[test]
    fn escape_decoding() {
        assert_eq!(decode_escapes(r"\x77\x65\x62"), "web");
        assert_eq!(decode_escapes(r"webdriver"), "webdriver");
        assert_eq!(decode_escapes("plain"), "plain");
        // Invalid escapes survive untouched.
        assert_eq!(decode_escapes(r"\xZZ"), r"\xZZ");
    }

    #[test]
    fn escaped_quotes_do_not_terminate_strings() {
        // The \" must not close the string: the // inside is string
        // content, not a comment.
        let src = r#"var a = "she said \"hi\" // not a comment"; var b = 2;"#;
        let out = strip_comments(src);
        assert_eq!(out, src, "escaped double quote ended the string early");
        let src = r#"var a = 'it\'s // still a string'; var b = 2;"#;
        assert_eq!(strip_comments(src), src, "escaped single quote ended the string early");
        // A lone backslash before the closing quote is itself escaped.
        let src = r#"var p = "C:\\"; // trailing comment"#;
        let out = strip_comments(src);
        assert!(out.contains(r#""C:\\""#));
        assert!(!out.contains("trailing comment"));
    }

    #[test]
    fn non_ascii_string_content_survives_verbatim() {
        // The old byte-wise stripper pushed raw UTF-8 bytes as chars,
        // turning 'café' into mojibake. Characters must round-trip.
        let src = "var msg = 'café ☕'; // strip me\nvar x = 1;";
        let out = strip_comments(src);
        assert!(out.contains("café ☕"), "non-ASCII string content mangled: {out}");
        assert!(!out.contains("strip me"));
    }

    #[test]
    fn template_literal_contents_preserved() {
        let src = "var t = `http://x/*not a comment*/ and // neither`;";
        assert_eq!(strip_comments(src), src);
        // Escaped backtick stays inside the template.
        let src = r"var t = `a \` b`; // gone";
        let out = strip_comments(src);
        assert!(out.contains(r"`a \` b`"));
        assert!(!out.contains("gone"));
    }

    #[test]
    fn template_interpolation_reenters_code_context() {
        // A comment inside ${ … } is code context and must be stripped;
        // the template text around it must survive.
        let src = "var t = `pre ${ x /* inner comment */ + 1 } post`;";
        let out = strip_comments(src);
        assert!(!out.contains("inner comment"));
        assert!(out.contains("pre ${ x  + 1 } post"), "got: {out}");
        // Braces inside the interpolation nest; the template's own close
        // brace is found correctly and `post // text` stays template text.
        let src = "var t = `a ${ f({k: 1}) } b // still template`;";
        let out = strip_comments(src);
        assert!(out.contains("b // still template"));
        // A string inside the interpolation can contain a backtick without
        // ending the template.
        let src = "var t = `a ${ '`' } b`; // real comment";
        let out = strip_comments(src);
        assert!(out.contains("} b`"));
        assert!(!out.contains("real comment"));
    }

    #[test]
    fn preprocess_decodes_then_strips() {
        // Pipeline order lock: escapes decode first, then comments strip.
        // A probe hidden behind hex escapes inside live code surfaces…
        let src = r"if (navigator.\x77ebdriver) {}";
        assert!(preprocess(src).contains("navigator.webdriver"));
        // …and one inside a comment is stripped after decoding.
        let src = r"// navigator.\x77ebdriver";
        assert!(!preprocess(src).contains("webdriver"));
        // Decoding can materialise a quote (\x22 -> ") that then delimits
        // a string during stripping — locked in as current behaviour.
        let src = "var q = \\x22; // comment";
        let out = preprocess(src);
        assert_eq!(out, "var q = \"; // comment");
    }

    #[test]
    fn comments_hiding_probes_are_removed() {
        // A probe inside a comment must NOT count…
        let src = "// navigator.webdriver\nvar x = 1;";
        assert!(!analyse(src).selenium);
        // …but a commented file with a live probe still matches.
        let src = "/* header */ if (navigator.webdriver) { flag(); }";
        assert!(analyse(src).selenium);
    }

    #[test]
    fn memo_belongs_to_its_matcher() {
        let src = "if (navigator.webdriver) {}";
        let t = obs::Telemetry::new().with_stats(true);
        let _t = t.enter();
        let auto = DetectCtx::new(MatcherKind::Automaton);
        let naive = DetectCtx::new(MatcherKind::Naive);
        let a = auto.classify_memo(src, 7);
        assert_eq!(auto.classify_memo(src, 7), a);
        {
            let _g = naive.enter();
            assert_eq!(DetectCtx::current().matcher(), MatcherKind::Naive);
            // A different context computes its own verdict, never reusing
            // the automaton's memo entry.
            assert_eq!(classify_memo(src, 7), a);
        }
        let snap = t.registry().snapshot();
        assert_eq!((snap.counter("match.memo.hit"), snap.counter("match.memo.miss")), (1, 2));
    }
}
