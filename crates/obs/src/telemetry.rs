//! [`Telemetry`]: one run's metrics registry, journal, profiler settings
//! and forensic sink, and the thread-local slot that says which one the
//! free functions of this crate ([`crate::add`], [`crate::emit`],
//! [`crate::prof::enter`], …) record into.
//!
//! A thread records into the telemetry it [`entered`](Telemetry::enter),
//! or into the process default when it entered none. The default is
//! inert — stats, tracing and profiling are all off — so code that never
//! enters a context pays one thread-local load and a branch per call and
//! leaks nothing into anybody's digest. A telemetry's switches are fixed
//! when it is built and cached in the slot on entry, which is what keeps
//! that disabled check to a single load.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::marker::PhantomData;
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};

use crate::journal::Journal;
use crate::metrics::Registry;
use crate::prof::{write_dump, Mode};

pub(crate) const STATS: u8 = 1;
pub(crate) const TRACING: u8 = 2;
/// `STATS | TRACING`: any metric collection at all.
pub(crate) const ENABLED: u8 = STATS | TRACING;
pub(crate) const PROF: u8 = 4;
pub(crate) const COLLAPSED: u8 = 8;
pub(crate) const FORENSIC: u8 = 16;

/// One crawl's telemetry. Cloning shares it (the handle is an `Arc`); the
/// `with_*` builders configure a telemetry before it is shared or entered.
#[derive(Clone)]
pub struct Telemetry(Arc<Inner>);

pub(crate) struct Inner {
    pub(crate) flags: u8,
    /// How many of the slowest visits keep a forensic dump (0: none).
    pub(crate) slow_visits: usize,
    /// The slowest visits so far, `(wall µs, rendered dump)`, at most
    /// `slow_visits`.
    pub(crate) slowest: Mutex<Vec<(u64, String)>>,
    pub(crate) registry: Registry,
    pub(crate) journal: Option<Arc<Journal>>,
    /// Forensic dump sink.
    pub(crate) sink: Option<Mutex<File>>,
    /// Collapsed-stack map (`path;to;phase` → self µs).
    pub(crate) collapsed: Mutex<BTreeMap<String, u64>>,
}

impl Inner {
    fn write_slow_visits(&self) {
        let mut kept = std::mem::take(&mut *self.slowest.lock().unwrap_or_else(|e| e.into_inner()));
        kept.sort_by_key(|(wall_us, _)| std::cmp::Reverse(*wall_us));
        for (_, dump) in &kept {
            write_dump(self, dump);
        }
    }
}

impl Default for Telemetry {
    fn default() -> Telemetry {
        Telemetry::new()
    }
}

impl Telemetry {
    /// A fresh telemetry with everything off and an empty registry.
    pub fn new() -> Telemetry {
        Telemetry(Arc::new(Inner {
            flags: 0,
            slow_visits: 0,
            slowest: Mutex::new(Vec::new()),
            registry: Registry::new(),
            journal: None,
            sink: None,
            collapsed: Mutex::new(BTreeMap::new()),
        }))
    }

    fn configure(mut self, f: impl FnOnce(&mut Inner)) -> Telemetry {
        f(Arc::get_mut(&mut self.0).expect("configure a Telemetry before cloning or entering it"));
        self
    }

    /// Collect metrics (`GULLIBLE_STATS=1`).
    pub fn with_stats(self, on: bool) -> Telemetry {
        self.configure(|t| t.flags = if on { t.flags | STATS } else { t.flags & !STATS })
    }

    /// Trace into `journal` (`GULLIBLE_TRACE`); tracing implies metric
    /// collection.
    pub fn with_journal(self, journal: Journal) -> Telemetry {
        self.configure(|t| {
            t.journal = Some(Arc::new(journal));
            t.flags |= TRACING;
        })
    }

    /// Phase-profiler mode (`GULLIBLE_PROF`). An armed flight recorder
    /// keeps the profiler on even under [`Mode::Off`].
    pub fn with_prof(self, mode: Mode) -> Telemetry {
        self.configure(|t| {
            t.flags &= !(PROF | COLLAPSED);
            match mode {
                Mode::Off => {}
                Mode::On => t.flags |= PROF,
                Mode::Collapsed => t.flags |= PROF | COLLAPSED,
            }
            if t.flags & FORENSIC != 0 {
                t.flags |= PROF;
            }
        })
    }

    /// Keep a forensic dump of the `k` slowest visits (by wall clock) and
    /// write them when the leg ends; 0 disables it. Only an armed flight
    /// recorder ([`Telemetry::with_forensics`]) captures them.
    pub fn with_slow_visits(self, k: usize) -> Telemetry {
        self.configure(|t| t.slow_visits = k)
    }

    /// End the slow-visit leg: write the kept dumps, slowest first, to
    /// the forensic sink and forget them. A leg that is never ended
    /// writes none of them.
    pub fn write_slow_visits(&self) {
        self.0.write_slow_visits();
    }

    /// Append flight-recorder dumps to `path` (`GULLIBLE_FORENSICS`). Arms
    /// the recorder and — because a dump without phase attribution is
    /// blind — the phase profiler too if it was off.
    pub fn with_forensics(self, path: &Path) -> std::io::Result<Telemetry> {
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(self.configure(|t| {
            t.sink = Some(Mutex::new(file));
            t.flags |= FORENSIC | PROF;
        }))
    }

    /// The telemetry this thread records into: the one it entered, else
    /// the (inert) process default.
    pub fn current() -> Telemetry {
        with_current(|t| Telemetry(Arc::clone(t)))
    }

    /// Make this the current telemetry of the calling thread until the
    /// guard drops (which restores the previous one).
    pub fn enter(&self) -> TelemetryGuard {
        let prev = (
            FLAGS.with(|f| f.replace(self.0.flags)),
            CURRENT.with(|c| c.replace(Some(Arc::clone(&self.0)))),
        );
        TelemetryGuard { prev: Some(prev), _not_send: PhantomData }
    }

    pub fn registry(&self) -> &Registry {
        &self.0.registry
    }

    /// The trace journal, when tracing.
    pub fn journal(&self) -> Option<Arc<Journal>> {
        self.0.journal.clone()
    }

    pub fn stats_enabled(&self) -> bool {
        self.0.flags & STATS != 0
    }

    /// The phase profiler's operating mode.
    pub fn prof_mode(&self) -> Mode {
        if self.0.flags & COLLAPSED != 0 {
            Mode::Collapsed
        } else if self.0.flags & PROF != 0 {
            Mode::On
        } else {
            Mode::Off
        }
    }

    /// Render the collapsed-stack map as flamegraph text: one
    /// `path;to;phase value` line per entry, sorted by path.
    pub fn render_collapsed(&self) -> String {
        let map = self.0.collapsed.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = String::new();
        for (path, v) in map.iter() {
            out.push_str(path);
            out.push(' ');
            out.push_str(&v.to_string());
            out.push('\n');
        }
        out
    }
}

/// Restores the previously current telemetry on drop. Not `Send`: a guard
/// must drop on the thread that entered.
#[must_use = "the telemetry is current only while the guard lives"]
pub struct TelemetryGuard {
    prev: Option<(u8, Option<Arc<Inner>>)>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for TelemetryGuard {
    fn drop(&mut self) {
        if let Some((flags, telemetry)) = self.prev.take() {
            FLAGS.with(|f| f.set(flags));
            // Swap out under the borrow, drop the Arc after it.
            let _exited = CURRENT.with(|c| c.replace(telemetry));
        }
    }
}

thread_local! {
    /// The current telemetry's switches, cached apart from it so the
    /// disabled check is one load of a plain thread-local.
    static FLAGS: Cell<u8> = const { Cell::new(0) };
    /// The current telemetry; `None`: the process default.
    static CURRENT: RefCell<Option<Arc<Inner>>> = const { RefCell::new(None) };
}

/// The calling thread's current switches.
#[inline]
pub(crate) fn flags() -> u8 {
    FLAGS.with(Cell::get)
}

/// The inert process default.
fn process_default() -> &'static Arc<Inner> {
    static DEFAULT: OnceLock<Telemetry> = OnceLock::new();
    &DEFAULT.get_or_init(Telemetry::new).0
}

/// Run `f` on the calling thread's current telemetry.
pub(crate) fn with_current<R>(f: impl FnOnce(&Arc<Inner>) -> R) -> R {
    CURRENT.with(|c| match &*c.borrow() {
        Some(t) => f(t),
        None => f(process_default()),
    })
}
