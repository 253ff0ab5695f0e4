//! Phase-attributed pipeline profiler and slow-visit flight recorder.
//!
//! Two instruments, both invisible to the determinism contract:
//!
//! * **Phase profiler** — RAII guards ([`enter`]) attribute wall-clock time
//!   to a fixed tree of pipeline phases (webgen materialise → compile cache
//!   hit/miss → jsengine interp → detect static/dynamic → archive
//!   encode/flush, rooted at the scheduler's per-item `visit`). Every phase
//!   records a log-bucket histogram (`prof.<name>_us`) and a self-time
//!   counter (`prof.self.<name>`); in collapsed mode the per-thread stack
//!   path also accumulates into a flamegraph-style collapsed-stack map.
//!   All `prof.*` metrics carry a [`NONDETERMINISTIC_PREFIXES`] prefix, so
//!   they render in `[stats]` but never reach the telemetry digest or the
//!   metric deltas in bundle manifest entries — profiling on vs off is
//!   byte-identical where it matters.
//! * **Flight recorder** — a per-worker ring buffer of recent events (every
//!   `obs::emit`, phase transitions, and explicit breadcrumbs). Typed
//!   visit failures and panics dump the ring plus the
//!   in-flight phase stack as flat JSONL forensic records to a side file
//!   (see [`Telemetry::with_forensics`]); the k slowest visits of a leg
//!   are captured the same way and written when the leg ends, so their
//!   count never depends on the machine's speed.
//!   `validate::validate_forensic` checks the schema. The ring is
//!   thread-local — recording takes no lock; only the rare dump
//!   serialises on the sink.
//!
//! Both record into the calling thread's current [`Telemetry`], whose
//! builders set the mode, slow-visit count and forensic sink.
//!
//! [`NONDETERMINISTIC_PREFIXES`]: crate::NONDETERMINISTIC_PREFIXES
//! [`Telemetry`]: crate::Telemetry
//! [`Telemetry::with_forensics`]: crate::Telemetry::with_forensics

use std::cell::RefCell;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::event::{push_json_string, AttrVal, Event};
use crate::telemetry::{self, COLLAPSED, ENABLED, FORENSIC, PROF};

// ------------------------------------------------------------------ phases

/// One node of the fixed phase tree: the display name plus the interned
/// metric names its guard records into (kept `'static` so a visit scope's
/// delta borrows them rather than allocating).
pub struct PhaseDef {
    pub name: &'static str,
    hist_us: &'static str,
    self_ctr: &'static str,
}

impl PhaseDef {
    /// Name of the per-phase total-time histogram (`prof.<name>_us`).
    pub fn hist_name(&self) -> &'static str {
        self.hist_us
    }

    /// Name of the self-time counter (`prof.self.<name>`).
    pub fn self_counter(&self) -> &'static str {
        self.self_ctr
    }
}

macro_rules! phase_def {
    ($ident:ident, $name:literal, $hist:literal, $self_ctr:literal) => {
        pub static $ident: PhaseDef =
            PhaseDef { name: $name, hist_us: $hist, self_ctr: $self_ctr };
    };
}

phase_def!(VISIT, "visit", "prof.visit_us", "prof.self.visit");
phase_def!(
    WEBGEN_MATERIALISE,
    "webgen.materialise",
    "prof.webgen.materialise_us",
    "prof.self.webgen.materialise"
);
phase_def!(COMPILE_HIT, "compile.hit", "prof.compile.hit_us", "prof.self.compile.hit");
phase_def!(COMPILE_MISS, "compile.miss", "prof.compile.miss_us", "prof.self.compile.miss");
phase_def!(JS_INTERP, "jsengine.interp", "prof.jsengine.interp_us", "prof.self.jsengine.interp");
phase_def!(
    JS_COMPILE_BC,
    "jsengine.compile_bc",
    "prof.jsengine.compile_bc_us",
    "prof.self.jsengine.compile_bc"
);
phase_def!(JS_VM, "jsengine.vm", "prof.jsengine.vm_us", "prof.self.jsengine.vm");
phase_def!(DETECT_STATIC, "detect.static", "prof.detect.static_us", "prof.self.detect.static");
phase_def!(
    DETECT_STATIC_BUILD,
    "detect.static.build",
    "prof.detect.static.build_us",
    "prof.self.detect.static.build"
);
phase_def!(
    DETECT_STATIC_SCAN,
    "detect.static.scan",
    "prof.detect.static.scan_us",
    "prof.self.detect.static.scan"
);
phase_def!(DETECT_DYNAMIC, "detect.dynamic", "prof.detect.dynamic_us", "prof.self.detect.dynamic");
phase_def!(ARCHIVE_ENCODE, "archive.encode", "prof.archive.encode_us", "prof.self.archive.encode");
phase_def!(ARCHIVE_FLUSH, "archive.flush", "prof.archive.flush_us", "prof.self.archive.flush");

/// Phases nested under `visit` — the set whose self times (plus `visit`'s
/// own) partition a visit's wall clock.
pub static VISIT_PHASES: &[&PhaseDef] = &[
    &WEBGEN_MATERIALISE,
    &COMPILE_HIT,
    &COMPILE_MISS,
    &JS_INTERP,
    &JS_COMPILE_BC,
    &JS_VM,
    &DETECT_STATIC,
    &DETECT_STATIC_BUILD,
    &DETECT_STATIC_SCAN,
    &DETECT_DYNAMIC,
    &ARCHIVE_ENCODE,
    &ARCHIVE_FLUSH,
];

// ------------------------------------------------------------------- state

static NEXT_DUMP_ID: AtomicU64 = AtomicU64::new(0);
static NEXT_WORKER_ID: AtomicU64 = AtomicU64::new(0);

/// Profiler operating mode (the `GULLIBLE_PROF` knob).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    Off,
    /// Per-phase histograms and self-time counters.
    On,
    /// `On` plus collapsed-stack (flamegraph text) accumulation.
    Collapsed,
}

/// Parse a `GULLIBLE_PROF` value: `collapsed` → [`Mode::Collapsed`], empty
/// / `0` / `off` → [`Mode::Off`], anything else → [`Mode::On`].
pub fn parse_mode(v: &str) -> Mode {
    match v.trim() {
        "collapsed" => Mode::Collapsed,
        "" | "0" | "off" => Mode::Off,
        _ => Mode::On,
    }
}

/// Is the phase profiler armed on this thread? One thread-local load —
/// the disabled-path check.
#[inline]
pub fn profiling() -> bool {
    telemetry::flags() & PROF != 0
}

// ----------------------------------------------------------- phase guards

struct Frame {
    def: &'static PhaseDef,
    start: Instant,
    /// Wall micros attributed to already-closed child phases.
    child_us: u64,
    /// `;`-joined stack path, materialised only in collapsed mode.
    path: Option<String>,
}

thread_local! {
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    static RING: RefCell<Ring> = const { RefCell::new(Ring::new()) };
    static WORKER_ID: std::cell::Cell<u64> = const { std::cell::Cell::new(u64::MAX) };
}

/// An open phase; attributes its wall time on drop. Inert (and free beyond
/// one atomic load) when the profiler is off.
pub struct ProfGuard {
    active: bool,
}

/// Enter `def` on this thread's phase stack.
pub fn enter(def: &'static PhaseDef) -> ProfGuard {
    if !profiling() {
        return ProfGuard { active: false };
    }
    let path = if telemetry::flags() & COLLAPSED != 0 {
        Some(STACK.with(|s| match s.borrow().last().and_then(|f| f.path.as_deref()) {
            Some(parent) => format!("{parent};{}", def.name),
            None => def.name.to_string(),
        }))
    } else {
        None
    };
    if recorder_armed() {
        ring_push("phase", def.name.to_string());
    }
    STACK.with(|s| {
        s.borrow_mut().push(Frame { def, start: Instant::now(), child_us: 0, path })
    });
    ProfGuard { active: true }
}

impl Drop for ProfGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let Some(frame) = STACK.with(|s| s.borrow_mut().pop()) else {
            return;
        };
        let total_us = frame.start.elapsed().as_micros() as u64;
        let self_us = total_us.saturating_sub(frame.child_us);
        STACK.with(|s| {
            if let Some(parent) = s.borrow_mut().last_mut() {
                parent.child_us += total_us;
            }
        });
        crate::observe(frame.def.hist_us, total_us);
        crate::add(frame.def.self_ctr, self_us);
        if let Some(path) = frame.path {
            telemetry::with_current(|t| {
                *t.collapsed.lock().unwrap_or_else(|e| e.into_inner()).entry(path).or_insert(0) +=
                    self_us;
            });
        }
    }
}

/// The current thread's in-flight phase path (`;`-joined, innermost last),
/// or `"none"` outside any phase.
pub fn current_phase() -> String {
    STACK.with(|s| {
        let stack = s.borrow();
        if stack.is_empty() {
            return "none".to_string();
        }
        let names: Vec<&str> = stack.iter().map(|f| f.def.name).collect();
        names.join(";")
    })
}

// ------------------------------------------------------- builtin counts

/// Add per-builtin interpreter call counts to the `prof.builtin.<name>`
/// counters. They are counts, not micros — natives execute without their
/// own phase frames — so they stay out of the collapsed-stack map, whose
/// values are self µs. Both engine backends funnel native dispatch through
/// one shared builtins layer, so the counts are engine-agnostic. The names
/// are built at run time, so the open visit scope's delta carries them
/// owned; like every metric counted inside a scope they reach the registry
/// when it closes.
pub fn count_builtins(builtins: &[(std::sync::Arc<str>, u64)]) {
    if !profiling() {
        return;
    }
    for (name, count) in builtins {
        crate::add_named(format!("prof.builtin.{name}").into(), *count);
    }
}

// ------------------------------------------------------- flight recorder

/// Ring capacity per worker thread. Sized so a forensic dump carries
/// enough history to explain a failure without bloating dump files.
pub const RING_CAPACITY: usize = 128;

struct Ring {
    buf: Vec<(u64, &'static str, String)>,
    seq: u64,
    dropped: u64,
}

impl Ring {
    const fn new() -> Ring {
        Ring { buf: Vec::new(), seq: 0, dropped: 0 }
    }

    fn push(&mut self, kind: &'static str, detail: String) {
        let entry = (self.seq, kind, detail);
        if self.buf.len() < RING_CAPACITY {
            self.buf.push(entry);
        } else {
            // Overwrite the oldest slot; the counter — never the dump —
            // absorbs the loss.
            let idx = (self.seq % RING_CAPACITY as u64) as usize;
            self.buf[idx] = entry;
            self.dropped += 1;
        }
        self.seq += 1;
    }

    /// Entries oldest → newest.
    fn snapshot(&self) -> Vec<(u64, &'static str, String)> {
        let mut out = self.buf.clone();
        out.sort_by_key(|(seq, _, _)| *seq);
        out
    }
}

/// Is the flight recorder armed (forensic sink installed) on this thread?
/// Callers should gate any allocation for [`ring_record`] details on this.
#[inline]
pub fn recorder_armed() -> bool {
    telemetry::flags() & FORENSIC != 0
}

/// Record a breadcrumb into this worker's ring. No-op (post-check) when
/// the recorder is unarmed — but gate the `detail` allocation on
/// [`recorder_armed`] at the call site.
pub fn ring_record(kind: &'static str, detail: String) {
    if recorder_armed() {
        ring_push(kind, detail);
    }
}

fn ring_push(kind: &'static str, detail: String) {
    RING.with(|r| r.borrow_mut().push(kind, detail));
}

/// Feed an emitted journal event into the ring (called by [`crate::emit`]
/// whether or not tracing is live).
pub(crate) fn ring_event(ev: &Event) {
    if !recorder_armed() {
        return;
    }
    let mut detail = String::new();
    for (i, (key, val)) in ev.attrs.iter().enumerate() {
        if i > 0 {
            detail.push(' ');
        }
        detail.push_str(key);
        detail.push('=');
        match val {
            AttrVal::U(v) => detail.push_str(&v.to_string()),
            AttrVal::I(v) => detail.push_str(&v.to_string()),
            AttrVal::S(s) => detail.push_str(s),
        }
    }
    ring_push(ev.ev, detail);
}

fn worker_id() -> u64 {
    WORKER_ID.with(|w| {
        if w.get() == u64::MAX {
            w.set(NEXT_WORKER_ID.fetch_add(1, Ordering::Relaxed));
        }
        w.get()
    })
}

fn wall_ms() -> u64 {
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_millis() as u64
}

// --------------------------------------------------------- forensic sink

/// Render this worker's flight-recorder state as one forensic record: a
/// flat `{"rec":"forensic",...}` header line naming the trigger and the
/// in-flight phase stack, followed by one `{"rec":"forensic_ring",...}`
/// line per buffered event (oldest first). Every line is flat JSON —
/// `validate::validate_forensic` checks the schema. Dump ids are unique
/// and follow capture order.
fn render_dump(trigger: &str, attrs: &[(&str, String)]) -> String {
    let id = NEXT_DUMP_ID.fetch_add(1, Ordering::Relaxed) + 1;
    let phase = current_phase();
    let depth = STACK.with(|s| s.borrow().len());
    let (ring, dropped) = RING.with(|r| {
        let r = r.borrow();
        (r.snapshot(), r.dropped)
    });

    let mut out = String::with_capacity(256 + ring.len() * 96);
    {
        use std::fmt::Write as _;
        let _ = write!(
            out,
            "{{\"rec\":\"forensic\",\"id\":{id},\"wall_ms\":{},\"worker\":{},\"trigger\":",
            wall_ms(),
            worker_id(),
        );
        push_json_string(&mut out, trigger);
        out.push_str(",\"phase\":");
        push_json_string(&mut out, &phase);
        let _ = write!(out, ",\"depth\":{depth},\"dropped\":{dropped},\"ring_len\":{}", ring.len());
        for (key, val) in attrs {
            out.push(',');
            push_json_string(&mut out, key);
            out.push(':');
            push_json_string(&mut out, val);
        }
        out.push_str("}\n");
        for (seq, kind, detail) in &ring {
            let _ = write!(out, "{{\"rec\":\"forensic_ring\",\"id\":{id},\"seq\":{seq},\"kind\":");
            push_json_string(&mut out, kind);
            out.push_str(",\"detail\":");
            push_json_string(&mut out, detail);
            out.push_str("}\n");
        }
    }
    out
}

/// Append a rendered dump to `t`'s forensic sink. A poisoned sink lock is
/// recovered, so a panic dump is never lost.
pub(crate) fn write_dump(t: &telemetry::Inner, dump: &str) {
    let Some(file) = &t.sink else { return };
    if t.flags & ENABLED != 0 {
        t.registry.add("prof.forensic.dumps", 1);
    }
    let mut file = file.lock().unwrap_or_else(|e| e.into_inner());
    let _ = file.write_all(dump.as_bytes());
    let _ = file.flush();
}

/// Dump this worker's flight-recorder state into the current telemetry's
/// forensic sink now. Safe to call during a panic unwind.
pub fn dump_forensic(trigger: &str, attrs: &[(&str, String)]) {
    if !recorder_armed() {
        return;
    }
    let dump = render_dump(trigger, attrs);
    telemetry::with_current(|t| write_dump(t, &dump));
}

/// Offer a finished visit, item `item` of its crawl labelled `label` (the
/// site's URL), to the slow-visit trigger. The current
/// telemetry keeps a `slow_visit` dump of its k slowest visits
/// ([`Telemetry::with_slow_visits`]); a visit slower than the fastest one
/// kept is captured here, on its worker, and evicts that one. The kept
/// dumps reach the sink when the leg ends
/// ([`Telemetry::write_slow_visits`]), so a leg of at least k visits
/// writes exactly k of them.
///
/// [`Telemetry::with_slow_visits`]: crate::Telemetry::with_slow_visits
/// [`Telemetry::write_slow_visits`]: crate::Telemetry::write_slow_visits
pub fn offer_slow_visit(item: usize, label: &str, wall_us: u64) {
    if !recorder_armed() {
        return;
    }
    telemetry::with_current(|t| {
        if t.slow_visits == 0 {
            return;
        }
        let mut kept = t.slowest.lock().unwrap_or_else(|e| e.into_inner());
        if kept.len() == t.slow_visits {
            let fastest = (0..kept.len()).min_by_key(|&i| kept[i].0).expect("k > 0");
            if kept[fastest].0 >= wall_us {
                return;
            }
            kept.swap_remove(fastest);
        }
        let attrs = [
            ("item", item.to_string()),
            ("label", label.to_string()),
            ("wall_us", wall_us.to_string()),
        ];
        kept.push((wall_us, render_dump("slow_visit", &attrs)));
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;
    use proplite::TempDir;

    fn tmp_file(name: &str) -> TempDir {
        TempDir::new(&format!("prof-{name}"))
    }

    #[test]
    fn guards_are_inert_when_off() {
        let t = Telemetry::new();
        let _g = t.enter();
        {
            let _p = enter(&VISIT);
            assert_eq!(current_phase(), "none");
        }
        assert!(t.registry().snapshot().histograms.is_empty());
    }

    #[test]
    fn nested_phases_attribute_self_time_and_paths() {
        let t = Telemetry::new().with_stats(true).with_prof(Mode::Collapsed);
        let _g = t.enter();
        {
            let _v = enter(&VISIT);
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _j = enter(&JS_INTERP);
                assert_eq!(current_phase(), "visit;jsengine.interp");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let snap = t.registry().snapshot();
        let visit = snap.histograms.get("prof.visit_us").expect("visit histogram");
        let interp = snap.histograms.get("prof.jsengine.interp_us").expect("interp histogram");
        assert_eq!(visit.count, 1);
        assert_eq!(interp.count, 1);
        // Parent self time excludes the child's total.
        let visit_self = snap.counter("prof.self.visit");
        let interp_self = snap.counter("prof.self.jsengine.interp");
        assert!(visit_self < visit.sum, "self {visit_self} must exclude child of {}", visit.sum);
        assert!(interp_self > 0);
        let rendered = t.render_collapsed();
        assert!(rendered.lines().any(|l| l.starts_with("visit ")), "{rendered}");
        assert!(rendered.contains("visit;jsengine.interp "), "{rendered}");
    }

    #[test]
    fn prof_metrics_never_reach_the_digest() {
        let t = Telemetry::new().with_stats(true).with_prof(Mode::On);
        let before = t.registry().snapshot().digest();
        let _g = t.enter();
        {
            let _v = enter(&VISIT);
            let _d = enter(&DETECT_STATIC);
        }
        count_builtins(&[(std::sync::Arc::from("getTime"), 3)]);
        let snap = t.registry().snapshot();
        assert_eq!(snap.digest(), before, "prof.* must be digest-invisible");
        assert!(snap.render().contains("prof."), "but still rendered:\n{}", snap.render());
        assert_eq!(snap.counter("prof.builtin.getTime"), 3);
    }

    #[test]
    fn builtin_counts_stay_out_of_the_collapsed_map() {
        let t = Telemetry::new().with_stats(true).with_prof(Mode::Collapsed);
        let _g = t.enter();
        {
            let _v = enter(&VISIT);
            count_builtins(&[(std::sync::Arc::from("defineProperty"), 692_145)]);
        }
        assert_eq!(t.registry().snapshot().counter("prof.builtin.defineProperty"), 692_145);
        let rendered = t.render_collapsed();
        assert!(rendered.starts_with("visit "), "{rendered}");
        assert!(!rendered.contains("builtin"), "counts are not self µs:\n{rendered}");
    }

    /// `wall_us` of every `slow_visit` dump in `text`, in file order.
    fn slow_visit_walls(text: &str) -> Vec<u64> {
        text.lines()
            .filter(|l| l.contains(r#""trigger":"slow_visit""#))
            .map(|l| {
                let tail = &l[l.find(r#""wall_us":""#).expect("wall_us attr") + 11..];
                tail[..tail.find('"').unwrap()].parse().unwrap()
            })
            .collect()
    }

    #[test]
    fn slow_visit_trigger_keeps_exactly_the_k_slowest() {
        let path = tmp_file("topk");
        let t = Telemetry::new().with_slow_visits(3).with_forensics(&path).expect("sink");
        {
            let _g = t.enter();
            for (item, us) in [5u64, 1, 9, 3, 7, 9, 2, 8, 4].into_iter().enumerate() {
                let _v = enter(&VISIT);
                ring_record("page", format!("item {item}"));
                offer_slow_visit(item, &format!("https://s{item}.test/"), us);
            }
            // Nothing reaches the sink before the leg ends.
            assert_eq!(std::fs::read_to_string(&path).unwrap_or_default(), "");
        }
        t.write_slow_visits();
        let text = std::fs::read_to_string(&path).expect("dump file");
        let summary = crate::validate::validate_forensic(&text).expect("parseable dumps");
        assert_eq!(summary.dumps, 3);
        assert!(summary.triggers.iter().all(|(t, p)| t == "slow_visit" && p == "visit"));
        // Slowest first; a tie with the fastest kept visit does not evict it.
        assert_eq!(slow_visit_walls(&text), [9, 9, 8]);
        assert!(text.contains(r#""item":"2""#) && text.contains(r#""item":"5""#), "{text}");
        assert!(text.contains(r#""label":"https://s2.test/""#), "{text}");
        // Each dump holds its visit's ring as it was on arrival: item 7's
        // breadcrumb is there, the later item 8's is in no kept dump.
        assert!(text.contains(r#""detail":"item 7""#), "{text}");
        assert!(!text.contains(r#""detail":"item 8""#), "{text}");
        // Writing ends the leg: a second write adds nothing.
        t.write_slow_visits();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);

        // Fewer visits than k: every one is kept.
        let short = tmp_file("topk-short");
        let t = Telemetry::new().with_slow_visits(5).with_forensics(&short).expect("sink");
        {
            let _g = t.enter();
            offer_slow_visit(0, "https://a.test/", 40);
            offer_slow_visit(1, "https://b.test/", 60);
        }
        t.write_slow_visits();
        let text = std::fs::read_to_string(&short).expect("dump file");
        assert_eq!(slow_visit_walls(&text), [60, 40]);
    }

    #[test]
    fn ring_wraparound_accounts_for_drops_and_keeps_the_dump() {
        let path = tmp_file("ring");
        let t = Telemetry::new().with_forensics(&path).expect("sink");
        let _g = t.enter();
        assert!(profiling(), "arming forensics must arm the profiler");
        // The ring is per thread and outlives telemetries: start this
        // test's history from a clean ring.
        RING.with(|r| *r.borrow_mut() = Ring::new());
        let extra = 50;
        for i in 0..RING_CAPACITY + extra {
            ring_record("tick", format!("event {i}"));
        }
        {
            let _v = enter(&VISIT);
            dump_forensic("panic", &[("msg", "boom".to_string())]);
        }
        let text = std::fs::read_to_string(&path).expect("dump file");
        let summary = crate::validate::validate_forensic(&text).expect("parseable dump");
        assert_eq!(summary.dumps, 1);
        // The visit phase-enter breadcrumb also landed in the ring.
        assert_eq!(summary.ring_events, RING_CAPACITY);
        assert_eq!(summary.triggers[0].0, "panic");
        assert_eq!(summary.triggers[0].1, "visit");
        // Oldest events were overwritten, newest survived, drops counted.
        assert!(text.contains(&format!("\"dropped\":{}", extra + 1)), "{text}");
        assert!(!text.contains("event 0\""), "oldest event must be gone");
        assert!(text.contains(&format!("event {}", RING_CAPACITY + extra - 1)));
    }

    #[test]
    fn emitted_events_feed_the_ring() {
        let path = tmp_file("emit");
        let t = Telemetry::new().with_forensics(&path).expect("sink");
        let _g = t.enter();
        crate::emit(Event::new(0, "fault").attr("reason", "hang").attr("attempt", 2u32));
        dump_forensic("visit_failed", &[]);
        let text = std::fs::read_to_string(&path).expect("dump file");
        assert!(text.contains(r#""kind":"fault""#), "{text}");
        assert!(text.contains(r#""detail":"reason=hang attempt=2""#), "{text}");
    }

    #[test]
    fn leaving_a_telemetry_disarms_everything() {
        let path = tmp_file("leave");
        let t = Telemetry::new()
            .with_prof(Mode::Collapsed)
            .with_slow_visits(3)
            .with_forensics(&path)
            .expect("sink");
        assert_eq!(t.prof_mode(), Mode::Collapsed);
        {
            let _g = t.enter();
            assert!(profiling() && recorder_armed());
        }
        // Back on the inert default: nothing armed, nothing kept or written.
        assert!(!profiling());
        assert!(!recorder_armed());
        dump_forensic("ignored", &[]);
        offer_slow_visit(0, "https://a.test/", 1_000);
        t.write_slow_visits();
        assert_eq!(std::fs::read_to_string(&path).unwrap_or_default(), "");
    }
}
