//! The JSONL event journal.
//!
//! One journal serves a whole run. It owns two kinds of scope:
//!
//! - the **crawl scope** (`"scope":"crawl"`): run-level events written
//!   directly by the coordinator thread. Its clock is a logical sequence
//!   number (one tick per event), which is trivially monotone and
//!   deterministic.
//! - **visit scopes** (`"scope":"visit:<idx>"`): events buffered on worker
//!   threads by [`crate::scope`] and handed to [`Journal::write_crawl_visits`]
//!   by the coordinator *in item order*, which is what makes the file
//!   byte-identical across worker counts. A journal holding several crawls
//!   (a scan, then the comparison's legs) names the scopes of its `k`-th
//!   later crawl `visit:<k>.<idx>`: every scope keeps its own clock.
//!
//! Lines carry no wall-clock time: two runs of one seeded crawl write the
//! same bytes. Wall time lives in the phase profiler and in forensic
//! dumps, which stamp their own `wall_ms`.

use crate::event::{Event, SpanMark};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

enum Sink {
    File(BufWriter<File>),
    /// In-memory sink for tests and snapshot assertions.
    Buffer(Vec<u8>),
}

struct CrawlState {
    seq: u64,
    /// Crawls whose visits have been written.
    crawls: u32,
    span_stack: Vec<u32>,
    next_span: u32,
}

pub struct Journal {
    sink: Mutex<Sink>,
    crawl: Mutex<CrawlState>,
}

impl Journal {
    fn new(sink: Sink) -> Journal {
        Journal {
            sink: Mutex::new(sink),
            crawl: Mutex::new(CrawlState { seq: 0, crawls: 0, span_stack: Vec::new(), next_span: 1 }),
        }
    }

    /// Journal streaming to `path` (truncating any existing file).
    pub fn to_file(path: &Path) -> io::Result<Journal> {
        let f = File::create(path)?;
        Ok(Journal::new(Sink::File(BufWriter::new(f))))
    }

    /// In-memory journal; read back with [`Journal::buffer_contents`].
    pub fn buffer() -> Journal {
        Journal::new(Sink::Buffer(Vec::new()))
    }

    /// Append whole lines to the sink. A full disk must not kill the
    /// crawl; telemetry is best-effort.
    fn write(&self, lines: &str) {
        let _ = match &mut *self.sink.lock().unwrap() {
            Sink::File(w) => w.write_all(lines.as_bytes()),
            Sink::Buffer(b) => b.write_all(lines.as_bytes()),
        };
    }

    /// Write a crawl-scope event; `t` is overwritten with the next logical
    /// sequence number.
    pub fn crawl_event(&self, mut ev: Event) {
        let mut crawl = self.crawl.lock().unwrap();
        ev.t_ms = crawl.seq;
        crawl.seq += 1;
        let line = ev.render("crawl") + "\n";
        drop(crawl);
        self.write(&line);
    }

    /// Open a crawl-scope span; returns its id for [`Journal::crawl_span_close`].
    pub fn crawl_span_open(&self, name: &'static str) -> u32 {
        let mut crawl = self.crawl.lock().unwrap();
        let id = crawl.next_span;
        crawl.next_span += 1;
        let parent = crawl.span_stack.last().copied().unwrap_or(0);
        crawl.span_stack.push(id);
        let ev = Event {
            t_ms: crawl.seq,
            ev: "span_open",
            span: Some(SpanMark::Open { id, parent }),
            attrs: Vec::new(),
        }
        .attr("name", name);
        crawl.seq += 1;
        let line = ev.render("crawl") + "\n";
        drop(crawl);
        self.write(&line);
        id
    }

    /// Close a crawl-scope span, closing any later unclosed spans first so
    /// the journal always balances.
    pub fn crawl_span_close(&self, id: u32) {
        let mut crawl = self.crawl.lock().unwrap();
        if !crawl.span_stack.contains(&id) {
            return;
        }
        let mut lines = String::new();
        while let Some(top) = crawl.span_stack.pop() {
            let ev = Event {
                t_ms: crawl.seq,
                ev: "span_close",
                span: Some(SpanMark::Close { id: top }),
                attrs: Vec::new(),
            };
            crawl.seq += 1;
            lines += &(ev.render("crawl") + "\n");
            if top == id {
                break;
            }
        }
        drop(crawl);
        self.write(&lines);
    }

    /// Write one crawl's buffered visit events, visit by visit in item
    /// order. Called by the coordinator once per crawl — never from worker
    /// threads. The journal's first crawl names its scopes `visit:<idx>`;
    /// its `k`-th later crawl names them `visit:<k>.<idx>`, so no scope
    /// name repeats in a journal that holds several crawls.
    pub fn write_crawl_visits<'a>(&self, visits: impl IntoIterator<Item = &'a [Event]>) {
        let crawl = {
            let mut state = self.crawl.lock().unwrap();
            state.crawls += 1;
            state.crawls - 1
        };
        for (idx, events) in visits.into_iter().enumerate() {
            if events.is_empty() {
                continue;
            }
            let scope = match crawl {
                0 => format!("visit:{idx}"),
                k => format!("visit:{k}.{idx}"),
            };
            let mut out = String::with_capacity(events.len() * 96);
            for ev in events {
                out.push_str(&ev.render(&scope));
                out.push('\n');
            }
            self.write(&out);
        }
    }

    /// Flush buffered output to the underlying file (no-op for buffers).
    pub fn flush(&self) {
        if let Sink::File(w) = &mut *self.sink.lock().unwrap() {
            let _ = w.flush();
        }
    }

    /// Contents of an in-memory journal; `None` for file-backed journals.
    pub fn buffer_contents(&self) -> Option<String> {
        match &*self.sink.lock().unwrap() {
            Sink::Buffer(b) => Some(String::from_utf8_lossy(b).into_owned()),
            Sink::File(_) => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crawl_events_get_sequential_logical_clock() {
        let j = Journal::buffer();
        j.crawl_event(Event::new(999, "a"));
        j.crawl_event(Event::new(999, "b"));
        let text = j.buffer_contents().unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with(r#"{"t":0,"scope":"crawl","ev":"a"}"#), "{}", lines[0]);
        assert!(lines[1].starts_with(r#"{"t":1,"scope":"crawl","ev":"b"}"#), "{}", lines[1]);
    }

    #[test]
    fn crawl_spans_nest_and_balance() {
        let j = Journal::buffer();
        let a = j.crawl_span_open("scan");
        let b = j.crawl_span_open("classify");
        j.crawl_span_close(b);
        j.crawl_span_close(a);
        let text = j.buffer_contents().unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains(r#""span":1,"parent":0,"name":"scan""#));
        assert!(lines[1].contains(r#""span":2,"parent":1,"name":"classify""#));
        assert!(lines[2].contains(r#""ev":"span_close","span":2"#));
        assert!(lines[3].contains(r#""ev":"span_close","span":1"#));
    }

    #[test]
    fn close_out_of_order_closes_inner_first() {
        let j = Journal::buffer();
        let a = j.crawl_span_open("outer");
        let _b = j.crawl_span_open("inner");
        j.crawl_span_close(a);
        let text = j.buffer_contents().unwrap();
        assert_eq!(text.lines().count(), 4);
        let last = text.lines().last().unwrap();
        assert!(last.contains(r#""ev":"span_close","span":1"#), "{last}");
    }

    #[test]
    fn visit_events_render_with_scope_label() {
        let j = Journal::buffer();
        let evs = vec![Event::new(0, "fault").attr("kind", "hang"), Event::new(7, "retry")];
        j.write_crawl_visits([&[][..], &[], &[], evs.as_slice()]);
        let text = j.buffer_contents().unwrap();
        assert!(text.contains(r#""scope":"visit:3","ev":"fault""#));
        assert!(text.contains(r#"{"t":7,"scope":"visit:3","ev":"retry"}"#));
        // A later crawl in the same journal gets scopes of its own.
        j.write_crawl_visits([&evs[1..]]);
        j.write_crawl_visits([&evs[1..]]);
        let text = j.buffer_contents().unwrap();
        assert!(text.contains(r#"{"t":7,"scope":"visit:1.0","ev":"retry"}"#), "{text}");
        assert!(text.contains(r#"{"t":7,"scope":"visit:2.0","ev":"retry"}"#), "{text}");
    }
}
