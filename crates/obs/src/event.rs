//! Journal events and their JSONL rendering.
//!
//! Every journal line is one JSON object with a *stable* key order:
//! `t` (simulated-clock milliseconds), `scope`, `ev`, then `span`/`parent`
//! for span events, then the event's attributes in emission order. No
//! field carries wall-clock time. Stable ordering is what makes journals
//! snapshot-testable: two runs of the same seeded crawl must produce
//! byte-identical files.

use std::fmt::Write as _;

/// An attribute value: unsigned, signed, or string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AttrVal {
    U(u64),
    I(i64),
    S(String),
}

impl From<u64> for AttrVal {
    fn from(v: u64) -> AttrVal {
        AttrVal::U(v)
    }
}

impl From<u32> for AttrVal {
    fn from(v: u32) -> AttrVal {
        AttrVal::U(v as u64)
    }
}

impl From<usize> for AttrVal {
    fn from(v: usize) -> AttrVal {
        AttrVal::U(v as u64)
    }
}

impl From<i64> for AttrVal {
    fn from(v: i64) -> AttrVal {
        AttrVal::I(v)
    }
}

impl From<&str> for AttrVal {
    fn from(v: &str) -> AttrVal {
        AttrVal::S(v.to_string())
    }
}

impl From<String> for AttrVal {
    fn from(v: String) -> AttrVal {
        AttrVal::S(v)
    }
}

/// Span bookkeeping carried by `span_open` / `span_close` events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanMark {
    /// `span_open`: this span's id and its parent's id (0 = scope root).
    Open { id: u32, parent: u32 },
    /// `span_close`: the id being closed.
    Close { id: u32 },
}

/// One journal event, timestamped on the simulated crawl clock.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Simulated-clock milliseconds within the event's scope.
    pub t_ms: u64,
    /// Event name (`span_open`, `fault`, `records`, …).
    pub ev: &'static str,
    pub span: Option<SpanMark>,
    /// Attributes in emission order (rendered in that order).
    pub attrs: Vec<(&'static str, AttrVal)>,
}

impl Event {
    pub fn new(t_ms: u64, ev: &'static str) -> Event {
        Event { t_ms, ev, span: None, attrs: Vec::new() }
    }

    pub fn attr(mut self, key: &'static str, val: impl Into<AttrVal>) -> Event {
        self.attrs.push((key, val.into()));
        self
    }

    /// Render the event as one JSON line (no trailing newline) for the
    /// given scope label.
    pub fn render(&self, scope: &str) -> String {
        let mut out = String::with_capacity(96);
        let _ = write!(out, "{{\"t\":{},\"scope\":", self.t_ms);
        push_json_string(&mut out, scope);
        out.push_str(",\"ev\":");
        push_json_string(&mut out, self.ev);
        match self.span {
            Some(SpanMark::Open { id, parent }) => {
                let _ = write!(out, ",\"span\":{id},\"parent\":{parent}");
            }
            Some(SpanMark::Close { id }) => {
                let _ = write!(out, ",\"span\":{id}");
            }
            None => {}
        }
        for (key, val) in &self.attrs {
            out.push(',');
            push_json_string(&mut out, key);
            out.push(':');
            match val {
                AttrVal::U(v) => {
                    let _ = write!(out, "{v}");
                }
                AttrVal::I(v) => {
                    let _ = write!(out, "{v}");
                }
                AttrVal::S(s) => push_json_string(&mut out, s),
            }
        }
        out.push('}');
        out
    }
}

/// Append `s` as a JSON string literal (quoted, escaped).
pub fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_stable_key_order() {
        let ev = Event::new(12, "fault").attr("kind", "hang").attr("attempt", 2u32);
        assert_eq!(
            ev.render("visit:7"),
            r#"{"t":12,"scope":"visit:7","ev":"fault","kind":"hang","attempt":2}"#
        );
    }

    #[test]
    fn renders_span_marks() {
        let open = Event {
            t_ms: 0,
            ev: "span_open",
            span: Some(SpanMark::Open { id: 1, parent: 0 }),
            attrs: vec![("name", AttrVal::S("visit".into()))],
        };
        assert_eq!(
            open.render("visit:0"),
            r#"{"t":0,"scope":"visit:0","ev":"span_open","span":1,"parent":0,"name":"visit"}"#
        );
        let close =
            Event { t_ms: 5, ev: "span_close", span: Some(SpanMark::Close { id: 1 }), attrs: vec![] };
        assert_eq!(
            close.render("visit:0"),
            r#"{"t":5,"scope":"visit:0","ev":"span_close","span":1}"#
        );
    }

    #[test]
    fn escapes_strings() {
        let ev = Event::new(0, "note").attr("msg", "a\"b\\c\nd\u{1}");
        let line = ev.render("crawl");
        assert!(line.contains(r#""msg":"a\"b\\c\nd\u0001""#), "{line}");
    }

    #[test]
    fn negative_attrs_render() {
        let ev = Event::new(0, "gauge").attr("v", -5i64);
        assert!(ev.render("crawl").contains("\"v\":-5"));
    }
}
