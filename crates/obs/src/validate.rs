//! Journal schema validation — the check CI runs over a `GULLIBLE_TRACE`
//! file: every line parses as a flat JSON object, required keys are
//! present, span open/close events balance per scope, and each scope's
//! clock is monotone non-decreasing.
//!
//! The parser handles exactly the JSON subset the journal emits (flat
//! objects, string and integer values) so the crate stays dependency-free.

use std::collections::HashMap;

/// A parsed journal value: integer or string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Val {
    Num(i64),
    Str(String),
}

impl Val {
    pub fn as_num(&self) -> Option<i64> {
        match self {
            Val::Num(n) => Some(*n),
            Val::Str(_) => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Val::Str(s) => Some(s),
            Val::Num(_) => None,
        }
    }
}

/// Parse one journal line as a flat JSON object, preserving key order.
pub fn parse_line(line: &str) -> Result<Vec<(String, Val)>, String> {
    let bytes = line.as_bytes();
    let mut pos = 0usize;

    fn skip_ws(bytes: &[u8], pos: &mut usize) {
        while *pos < bytes.len() && (bytes[*pos] as char).is_ascii_whitespace() {
            *pos += 1;
        }
    }

    fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        if *pos < bytes.len() && bytes[*pos] == c {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, *pos))
        }
    }

    fn parse_string(line: &str, bytes: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(bytes, pos, b'"')?;
        let mut out = String::new();
        loop {
            let Some(&b) = bytes.get(*pos) else {
                return Err("unterminated string".into());
            };
            *pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = bytes.get(*pos) else {
                        return Err("dangling escape".into());
                    };
                    *pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = line
                                .get(*pos..*pos + 4)
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape '{hex}'"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("invalid codepoint {code}"))?,
                            );
                            *pos += 4;
                        }
                        other => return Err(format!("unknown escape '\\{}'", other as char)),
                    }
                }
                _ => {
                    // Re-read from the original &str so multi-byte UTF-8
                    // characters survive; back up to the byte we consumed.
                    let start = *pos - 1;
                    let ch_len = utf8_len(b);
                    let s = line
                        .get(start..start + ch_len)
                        .ok_or_else(|| "invalid utf-8".to_string())?;
                    out.push_str(s);
                    *pos = start + ch_len;
                }
            }
        }
    }

    fn utf8_len(first: u8) -> usize {
        match first {
            0x00..=0x7f => 1,
            0xc0..=0xdf => 2,
            0xe0..=0xef => 3,
            _ => 4,
        }
    }

    fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<i64, String> {
        let start = *pos;
        if bytes.get(*pos) == Some(&b'-') {
            *pos += 1;
        }
        while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
            *pos += 1;
        }
        if *pos == start {
            return Err(format!("expected number at byte {start}"));
        }
        std::str::from_utf8(&bytes[start..*pos])
            .unwrap()
            .parse::<i64>()
            .map_err(|e| format!("bad number: {e}"))
    }

    skip_ws(bytes, &mut pos);
    expect(bytes, &mut pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, &mut pos);
    if bytes.get(pos) == Some(&b'}') {
        pos += 1;
    } else {
        loop {
            skip_ws(bytes, &mut pos);
            let key = parse_string(line, bytes, &mut pos)?;
            skip_ws(bytes, &mut pos);
            expect(bytes, &mut pos, b':')?;
            skip_ws(bytes, &mut pos);
            let val = match bytes.get(pos) {
                Some(b'"') => Val::Str(parse_string(line, bytes, &mut pos)?),
                _ => Val::Num(parse_num(bytes, &mut pos)?),
            };
            fields.push((key, val));
            skip_ws(bytes, &mut pos);
            match bytes.get(pos) {
                Some(b',') => pos += 1,
                Some(b'}') => {
                    pos += 1;
                    break;
                }
                _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
            }
        }
    }
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(fields)
}

/// Summary of a validated journal.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ValidateSummary {
    pub lines: usize,
    pub scopes: usize,
    pub spans: usize,
}

/// Validate a whole journal. Returns an error naming the first offending
/// line (1-based) on any violation.
pub fn validate_journal(contents: &str) -> Result<ValidateSummary, String> {
    struct ScopeCheck {
        last_t: i64,
        span_stack: Vec<i64>,
    }
    let mut scopes: HashMap<String, ScopeCheck> = HashMap::new();
    let mut lines = 0usize;
    let mut spans = 0usize;

    for (i, raw) in contents.lines().enumerate() {
        let lineno = i + 1;
        if raw.trim().is_empty() {
            continue;
        }
        lines += 1;
        let fields = parse_line(raw).map_err(|e| format!("line {lineno}: {e}"))?;
        let get = |k: &str| fields.iter().find(|(key, _)| key == k).map(|(_, v)| v);

        let t = get("t")
            .and_then(Val::as_num)
            .ok_or_else(|| format!("line {lineno}: missing numeric 't'"))?;
        let scope = get("scope")
            .and_then(Val::as_str)
            .ok_or_else(|| format!("line {lineno}: missing string 'scope'"))?
            .to_string();
        let ev = get("ev")
            .and_then(Val::as_str)
            .ok_or_else(|| format!("line {lineno}: missing string 'ev'"))?
            .to_string();

        let check = scopes
            .entry(scope.clone())
            .or_insert(ScopeCheck { last_t: -1, span_stack: Vec::new() });
        if t < check.last_t {
            return Err(format!(
                "line {lineno}: clock went backwards in scope '{scope}' ({t} < {})",
                check.last_t
            ));
        }
        check.last_t = t;

        match ev.as_str() {
            "span_open" => {
                let id = get("span")
                    .and_then(Val::as_num)
                    .ok_or_else(|| format!("line {lineno}: span_open missing 'span'"))?;
                let parent = get("parent")
                    .and_then(Val::as_num)
                    .ok_or_else(|| format!("line {lineno}: span_open missing 'parent'"))?;
                let expected = check.span_stack.last().copied().unwrap_or(0);
                if parent != expected {
                    return Err(format!(
                        "line {lineno}: span {id} parent {parent} but enclosing span is {expected}"
                    ));
                }
                check.span_stack.push(id);
                spans += 1;
            }
            "span_close" => {
                let id = get("span")
                    .and_then(Val::as_num)
                    .ok_or_else(|| format!("line {lineno}: span_close missing 'span'"))?;
                match check.span_stack.pop() {
                    Some(top) if top == id => {}
                    Some(top) => {
                        return Err(format!(
                            "line {lineno}: span_close {id} but innermost open span is {top}"
                        ));
                    }
                    None => {
                        return Err(format!(
                            "line {lineno}: span_close {id} with no open span in scope '{scope}'"
                        ));
                    }
                }
            }
            _ => {}
        }
    }

    for (scope, check) in &scopes {
        if !check.span_stack.is_empty() {
            return Err(format!(
                "scope '{scope}' ends with {} unclosed span(s): {:?}",
                check.span_stack.len(),
                check.span_stack
            ));
        }
    }

    Ok(ValidateSummary { lines, scopes: scopes.len(), spans })
}

/// Summary of a validated forensic dump file.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ForensicSummary {
    /// Forensic header records.
    pub dumps: usize,
    /// Ring entries across all dumps.
    pub ring_events: usize,
    /// `(trigger, phase)` per dump, in file order.
    pub triggers: Vec<(String, String)>,
}

/// Validate a flight-recorder forensic dump file (`prof::dump_forensic`
/// output): every line is flat JSON; each `rec:"forensic"` header carries a
/// non-empty trigger and in-flight phase plus drop accounting; each header
/// is followed by exactly `ring_len` `rec:"forensic_ring"` lines with the
/// same dump id and strictly increasing sequence numbers.
pub fn validate_forensic(contents: &str) -> Result<ForensicSummary, String> {
    let mut summary = ForensicSummary::default();
    // (dump id, ring lines still expected, last seq seen)
    let mut open: Option<(i64, i64, Option<i64>)> = None;

    for (i, raw) in contents.lines().enumerate() {
        let lineno = i + 1;
        if raw.trim().is_empty() {
            continue;
        }
        let fields = parse_line(raw).map_err(|e| format!("line {lineno}: {e}"))?;
        let get = |k: &str| fields.iter().find(|(key, _)| key == k).map(|(_, v)| v);
        let rec = get("rec")
            .and_then(Val::as_str)
            .ok_or_else(|| format!("line {lineno}: missing string 'rec'"))?;

        match rec {
            "forensic" => {
                if let Some((id, want, _)) = open {
                    return Err(format!(
                        "line {lineno}: dump {id} still expects {want} ring line(s)"
                    ));
                }
                let id = get("id")
                    .and_then(Val::as_num)
                    .ok_or_else(|| format!("line {lineno}: forensic missing numeric 'id'"))?;
                let trigger = get("trigger")
                    .and_then(Val::as_str)
                    .filter(|s| !s.is_empty())
                    .ok_or_else(|| format!("line {lineno}: forensic missing 'trigger'"))?;
                let phase = get("phase")
                    .and_then(Val::as_str)
                    .filter(|s| !s.is_empty())
                    .ok_or_else(|| format!("line {lineno}: forensic missing 'phase'"))?;
                for key in ["wall_ms", "worker", "depth", "dropped"] {
                    get(key)
                        .and_then(Val::as_num)
                        .ok_or_else(|| format!("line {lineno}: forensic missing numeric '{key}'"))?;
                }
                let ring_len = get("ring_len")
                    .and_then(Val::as_num)
                    .ok_or_else(|| format!("line {lineno}: forensic missing numeric 'ring_len'"))?;
                summary.dumps += 1;
                summary.triggers.push((trigger.to_string(), phase.to_string()));
                if ring_len > 0 {
                    open = Some((id, ring_len, None));
                }
            }
            "forensic_ring" => {
                let Some((id, want, last_seq)) = open else {
                    return Err(format!("line {lineno}: ring line outside a dump"));
                };
                let line_id = get("id")
                    .and_then(Val::as_num)
                    .ok_or_else(|| format!("line {lineno}: ring missing numeric 'id'"))?;
                if line_id != id {
                    return Err(format!(
                        "line {lineno}: ring line for dump {line_id} inside dump {id}"
                    ));
                }
                let seq = get("seq")
                    .and_then(Val::as_num)
                    .ok_or_else(|| format!("line {lineno}: ring missing numeric 'seq'"))?;
                if let Some(last) = last_seq {
                    if seq <= last {
                        return Err(format!(
                            "line {lineno}: ring seq {seq} not after {last} in dump {id}"
                        ));
                    }
                }
                get("kind")
                    .and_then(Val::as_str)
                    .ok_or_else(|| format!("line {lineno}: ring missing string 'kind'"))?;
                get("detail")
                    .and_then(Val::as_str)
                    .ok_or_else(|| format!("line {lineno}: ring missing string 'detail'"))?;
                summary.ring_events += 1;
                open = (want > 1).then_some((id, want - 1, Some(seq)));
            }
            other => return Err(format!("line {lineno}: unknown record kind '{other}'")),
        }
    }
    if let Some((id, want, _)) = open {
        return Err(format!("file ends with dump {id} expecting {want} more ring line(s)"));
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::journal::Journal;

    #[test]
    fn parses_rendered_events_back() {
        let ev = Event::new(5, "fault").attr("kind", "hang").attr("msg", "a\"b\\c\nd");
        let fields = parse_line(&ev.render("visit:3")).unwrap();
        assert_eq!(fields[0], ("t".into(), Val::Num(5)));
        assert_eq!(fields[1], ("scope".into(), Val::Str("visit:3".into())));
        assert_eq!(fields[2], ("ev".into(), Val::Str("fault".into())));
        assert_eq!(fields[4], ("msg".into(), Val::Str("a\"b\\c\nd".into())));
        assert_eq!(fields.len(), 5);
    }

    #[test]
    fn parses_unicode_and_u_escapes() {
        let fields = parse_line(r#"{"t":0,"scope":"crawl","ev":"x","msg":"héllo"}"#).unwrap();
        assert_eq!(fields[3].1, Val::Str("héllo".into()));
        let escaped = "{\"t\":0,\"scope\":\"crawl\",\"ev\":\"x\",\"msg\":\"AB\\u0001\"}";
        let fields = parse_line(escaped).unwrap();
        assert_eq!(fields[3].1, Val::Str("AB\u{1}".into()));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_line("not json").is_err());
        assert!(parse_line(r#"{"t":1"#).is_err());
        assert!(parse_line(r#"{"t":1} extra"#).is_err());
        assert!(parse_line(r#"{"t":}"#).is_err());
    }

    #[test]
    fn validates_a_real_journal() {
        let j = Journal::buffer();
        let a = j.crawl_span_open("scan");
        j.crawl_event(Event::new(0, "note").attr("k", 1u64));
        j.crawl_span_close(a);
        j.write_crawl_visits([&[Event::new(0, "fault").attr("kind", "hang")][..]]);
        let summary = validate_journal(&j.buffer_contents().unwrap()).unwrap();
        assert_eq!(summary, ValidateSummary { lines: 4, scopes: 2, spans: 1 });
    }

    #[test]
    fn catches_unbalanced_spans() {
        let text = r#"{"t":0,"scope":"crawl","ev":"span_open","span":1,"parent":0,"name":"x"}"#;
        let err = validate_journal(text).unwrap_err();
        assert!(err.contains("unclosed"), "{err}");
    }

    #[test]
    fn catches_mismatched_close() {
        let text = concat!(
            r#"{"t":0,"scope":"crawl","ev":"span_open","span":1,"parent":0,"name":"x"}"#,
            "\n",
            r#"{"t":1,"scope":"crawl","ev":"span_close","span":2}"#
        );
        assert!(validate_journal(text).is_err());
    }

    #[test]
    fn catches_clock_regression() {
        let text = concat!(
            r#"{"t":5,"scope":"visit:0","ev":"a"}"#,
            "\n",
            r#"{"t":4,"scope":"visit:0","ev":"b"}"#
        );
        let err = validate_journal(text).unwrap_err();
        assert!(err.contains("clock went backwards"), "{err}");
    }

    #[test]
    fn scopes_have_independent_clocks() {
        let text = concat!(
            r#"{"t":5,"scope":"visit:0","ev":"a"}"#,
            "\n",
            r#"{"t":0,"scope":"visit:1","ev":"b"}"#
        );
        assert!(validate_journal(text).is_ok());
    }
}

#[cfg(test)]
mod forensic_tests {
    use super::*;

    fn header(id: u64, ring_len: u64) -> String {
        format!(
            concat!(
                r#"{{"rec":"forensic","id":{},"wall_ms":12,"worker":0,"#,
                r#""trigger":"visit_failed","phase":"visit","#,
                r#""depth":1,"dropped":0,"ring_len":{}}}"#
            ),
            id, ring_len
        )
    }

    fn ring(id: u64, seq: u64) -> String {
        format!(
            r#"{{"rec":"forensic_ring","id":{id},"seq":{seq},"kind":"page","detail":"u{seq}"}}"#
        )
    }

    #[test]
    fn accepts_well_formed_dumps() {
        let text = format!("{}\n{}\n{}\n{}\n", header(1, 2), ring(1, 5), ring(1, 9), header(2, 0));
        let s = validate_forensic(&text).unwrap();
        assert_eq!(s.dumps, 2);
        assert_eq!(s.ring_events, 2);
        assert_eq!(s.triggers[0], ("visit_failed".to_string(), "visit".to_string()));
    }

    #[test]
    fn rejects_short_ring() {
        let text = format!("{}\n{}\n", header(1, 2), ring(1, 5));
        let err = validate_forensic(&text).unwrap_err();
        assert!(err.contains("expecting 1 more"), "{err}");
        // A new header before the ring finishes is also a hole.
        let text = format!("{}\n{}\n{}\n", header(1, 2), ring(1, 5), header(2, 0));
        assert!(validate_forensic(&text).is_err());
    }

    #[test]
    fn rejects_out_of_order_or_orphan_ring_lines() {
        let text = format!("{}\n{}\n{}\n", header(1, 2), ring(1, 9), ring(1, 5));
        let err = validate_forensic(&text).unwrap_err();
        assert!(err.contains("not after"), "{err}");
        assert!(validate_forensic(&ring(1, 0)).unwrap_err().contains("outside a dump"));
        let text = format!("{}\n{}\n", header(1, 1), ring(7, 0));
        assert!(validate_forensic(&text).unwrap_err().contains("inside dump"));
    }

    #[test]
    fn rejects_missing_fields() {
        let text = r#"{"rec":"forensic","id":1,"wall_ms":0,"worker":0,"trigger":"","phase":"p","depth":0,"dropped":0,"ring_len":0}"#;
        assert!(validate_forensic(text).unwrap_err().contains("trigger"));
        let text = r#"{"rec":"forensic","id":1,"trigger":"t","phase":"p"}"#;
        assert!(validate_forensic(text).is_err());
        assert!(validate_forensic(r#"{"rec":"mystery"}"#).unwrap_err().contains("unknown record"));
    }
}
