//! The task manager: parallel work distribution across browser workers.
//!
//! Real OpenWPM's TaskManager fans site visits out to browser processes,
//! monitors liveliness and restarts crashed browsers. Interpreters here are
//! `!Send` (single-threaded realms), so parallelism is per-worker: each
//! worker thread builds its own state (browsers) via `init` and consumes
//! work items. Results come back in input order.
//!
//! # Scheduling
//!
//! Work is distributed by a **chunked work-stealing scheduler**. Each
//! worker owns one atomic *range* of item indices — a half-open interval
//! `[lo, hi)` packed into a single `AtomicU64` — seeded with a contiguous
//! slice of the input (sites arrive in rank order, so contiguous seeding
//! keeps each worker on a cache-friendly, monotone rank walk). The owner
//! claims chunks from the front of its own range with a CAS that advances
//! `lo`; when its range runs dry it steals the back half of the *busiest*
//! victim's range with a CAS that retreats the victim's `hi`. Both sides
//! mutate the same packed word, so a claim and a steal can never hand out
//! the same index twice.
//!
//! Total synchronisation state is O(workers): one range word per worker,
//! one remaining-items counter, one abort flag and one first-panic slot —
//! not the one-mutex-per-item queue (plus a global results mutex) this
//! replaces. Results are pushed into per-worker buffers and merged in item
//! (rank) order after the scope joins, which is why every downstream
//! artifact — telemetry digest, per-site records, checkpoint files — is
//! byte-identical at any worker count.
//!
//! Scheduler effort is observable as `sched.steal`, `sched.chunk.claimed`
//! and `sched.idle_spins` counters plus the `sched.visit_wall_us` wall
//! latency histogram; all of it reflects scheduling luck and is excluded
//! from the telemetry digest (see `obs::NONDETERMINISTIC_PREFIXES`).

use std::cell::UnsafeCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Render a panic payload (the `Box<dyn Any>` from `catch_unwind`) as text.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// A half-open interval `[lo, hi)` of item indices packed into one
/// `AtomicU64` (`lo` in the high 32 bits, `hi` in the low 32). Packing
/// both bounds into one word lets owner claims (advance `lo`) and thief
/// steals (retreat `hi`) contend through a single CAS, so an index can
/// never be handed out twice even when both race.
struct Range(AtomicU64);

#[inline]
fn pack(lo: u32, hi: u32) -> u64 {
    ((lo as u64) << 32) | hi as u64
}

#[inline]
fn unpack(word: u64) -> (u32, u32) {
    ((word >> 32) as u32, word as u32)
}

impl Range {
    fn new(lo: u32, hi: u32) -> Range {
        Range(AtomicU64::new(pack(lo, hi)))
    }

    /// Claim up to `chunk` items from the front of the range (owner side).
    /// `chunk == 0` means auto: an eighth of what remains, clamped to
    /// `[1, 64]` — big enough to amortise the CAS, small enough to leave a
    /// stealable tail. Returns the claimed interval, or `None` when empty.
    fn claim_front(&self, chunk: usize) -> Option<(u32, u32)> {
        loop {
            let word = self.0.load(Ordering::Acquire);
            let (lo, hi) = unpack(word);
            if lo >= hi {
                return None;
            }
            let rem = (hi - lo) as usize;
            let take = if chunk == 0 { (rem / 8).clamp(1, 64) } else { chunk.min(rem) } as u32;
            let next = pack(lo + take, hi);
            if self
                .0
                .compare_exchange_weak(word, next, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return Some((lo, lo + take));
            }
        }
    }

    /// Steal the back half of the range (thief side). Returns the stolen
    /// interval, or `None` if the range emptied under us.
    fn steal_back(&self) -> Option<(u32, u32)> {
        loop {
            let word = self.0.load(Ordering::Acquire);
            let (lo, hi) = unpack(word);
            if lo >= hi {
                return None;
            }
            let steal = ((hi - lo) / 2).max(1);
            let next = pack(lo, hi - steal);
            if self
                .0
                .compare_exchange_weak(word, next, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                return Some((hi - steal, hi));
            }
        }
    }

    /// Items currently remaining in the range.
    fn len(&self) -> usize {
        let (lo, hi) = unpack(self.0.load(Ordering::Acquire));
        hi.saturating_sub(lo) as usize
    }

    /// Install a freshly stolen interval into this (empty) range. Only the
    /// owner stores here, and only when its range is empty; thieves skip
    /// empty ranges, so the store cannot race a successful steal.
    fn install(&self, lo: u32, hi: u32) {
        self.0.store(pack(lo, hi), Ordering::Release);
    }
}

/// The input items, one slot per index. A slot is read exactly once, by
/// whichever worker claimed its index through the range CAS protocol — the
/// claim grants exclusive access, which is what makes the `Sync` impl
/// sound despite the `UnsafeCell`s.
struct ItemSlots<W>(Box<[UnsafeCell<Option<W>>]>);

// SAFETY: every index is claimed exactly once (a CAS either advances an
// owner's `lo` past it or retreats a victim's `hi` below it — never both),
// and the pre-spawn writes happen-before the scope's threads start. A slot
// therefore has exactly one reader and no concurrent writer.
unsafe impl<W: Send> Sync for ItemSlots<W> {}

impl<W> ItemSlots<W> {
    /// Take the item at `i`. Caller must hold the claim on `i`.
    ///
    /// SAFETY (caller): `i` was claimed from a range by this thread.
    unsafe fn take(&self, i: usize) -> W {
        (*self.0[i].get()).take().expect("item claimed once")
    }
}

/// Per-worker scheduler effort, flushed to obs counters once at exit so
/// the hot loop never touches the registry for bookkeeping.
#[derive(Default)]
struct SchedStats {
    chunks: u64,
    steals: u64,
    idle_spins: u64,
}

impl SchedStats {
    fn flush(&self) {
        obs::add("sched.chunk.claimed", self.chunks);
        obs::add("sched.steal", self.steals);
        obs::add("sched.idle_spins", self.idle_spins);
    }
}

/// Run `items` through per-worker state machines on `workers` threads.
///
/// * `init(worker_index)` builds the per-thread state (e.g. a `Browser`);
/// * `step(&mut state, item_index, item)` performs one visit.
///
/// Returns the results ordered by item index — the scheduler decides which
/// worker visits which item, but never the order of the output.
///
/// Workers record telemetry into the caller's current
/// [`obs::Telemetry`]: a crawl's scheduler counters land in that crawl's
/// registry, and a caller that entered none records into the inert
/// default.
///
/// A panic inside `init` or `step` does not leave the other workers to
/// finish and then die on a secondary "all items processed" expect with the
/// real cause lost on another thread's stderr: the first panic is captured
/// with the item index it occurred on, remaining work is abandoned, and
/// `run_parallel` re-panics with a message naming the failing item.
pub fn run_parallel<W, R, S>(
    items: Vec<W>,
    workers: usize,
    init: impl Fn(usize) -> S + Sync,
    step: impl Fn(&mut S, usize, W) -> R + Sync,
) -> Vec<R>
where
    W: Send,
    R: Send,
{
    run_parallel_chunked(items, workers, 0, init, step)
}

/// [`run_parallel`] with an explicit owner-side chunk size (`0` = auto).
/// Exposed so the scheduler's determinism tests can sweep chunk sizes; the
/// merged output is the same for any chunking.
pub fn run_parallel_chunked<W, R, S>(
    items: Vec<W>,
    workers: usize,
    chunk: usize,
    init: impl Fn(usize) -> S + Sync,
    step: impl Fn(&mut S, usize, W) -> R + Sync,
) -> Vec<R>
where
    W: Send,
    R: Send,
{
    let workers = workers.max(1);
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    assert!(n <= u32::MAX as usize, "run_parallel supports at most u32::MAX items");

    let slots = ItemSlots(items.into_iter().map(|w| UnsafeCell::new(Some(w))).collect());
    // Seed each worker with a contiguous slice of the input; the slices
    // cover [0, n) exactly, and later workers absorb the remainder.
    let ranges: Vec<Range> = (0..workers)
        .map(|w| Range::new((w * n / workers) as u32, ((w + 1) * n / workers) as u32))
        .collect();
    let remaining = AtomicUsize::new(n);
    let abort = AtomicBool::new(false);
    // First captured panic: (item index if inside `step`, message).
    let first_panic: Mutex<Option<(Option<usize>, String)>> = Mutex::new(None);
    let telemetry = obs::Telemetry::current();

    let buffers: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let slots = &slots;
                let ranges = &ranges;
                let remaining = &remaining;
                let abort = &abort;
                let first_panic = &first_panic;
                let init = &init;
                let step = &step;
                let telemetry = &telemetry;
                scope.spawn(move || {
                    let _telemetry = telemetry.enter();
                    let mut out: Vec<(usize, R)> = Vec::new();
                    let mut stats = SchedStats::default();
                    let mut state = match catch_unwind(AssertUnwindSafe(|| init(w))) {
                        Ok(s) => s,
                        Err(payload) => {
                            let mut slot = first_panic.lock().unwrap();
                            if slot.is_none() {
                                *slot = Some((None, panic_message(payload.as_ref())));
                            }
                            // Stop the other workers: the run can no
                            // longer complete.
                            abort.store(true, Ordering::Relaxed);
                            return out;
                        }
                    };
                    'work: while !abort.load(Ordering::Relaxed) {
                        // Owner side: claim a chunk from our own range.
                        let (lo, hi) = match ranges[w].claim_front(chunk) {
                            Some(c) => c,
                            None => {
                                // Thief side: raid the busiest victim.
                                let stolen = {
                                    let _sp = obs::prof::enter(&obs::prof::SCHED_STEAL);
                                    steal_from_busiest(ranges, w)
                                };
                                match stolen {
                                    Some((lo, hi)) => {
                                        stats.steals += 1;
                                        // Keep the first item; park the rest
                                        // in our range where others can see
                                        // (and re-steal) it.
                                        ranges[w].install(lo + 1, hi);
                                        (lo, lo + 1)
                                    }
                                    None => {
                                        if remaining.load(Ordering::Acquire) == 0 {
                                            break 'work;
                                        }
                                        // Another thief transiently holds
                                        // stolen work privately; spin until
                                        // it surfaces or the run drains.
                                        stats.idle_spins += 1;
                                        {
                                            let _sp = obs::prof::enter(&obs::prof::SCHED_IDLE);
                                            std::thread::yield_now();
                                        }
                                        continue 'work;
                                    }
                                }
                            }
                        };
                        stats.chunks += 1;
                        for i in lo..hi {
                            if abort.load(Ordering::Relaxed) {
                                break 'work;
                            }
                            // SAFETY: `i` came from our claim CAS above.
                            let item = unsafe { slots.take(i as usize) };
                            let t0 = obs::enabled().then(std::time::Instant::now);
                            // The VISIT guard lives outside the closure so a
                            // panicking step still leaves it on the phase
                            // stack when the forensic dump fires below.
                            let visit_guard = obs::prof::enter(&obs::prof::VISIT);
                            match catch_unwind(AssertUnwindSafe(|| step(&mut state, i as usize, item))) {
                                Ok(r) => {
                                    if let Some(t0) = t0 {
                                        let us = t0.elapsed().as_micros() as u64;
                                        obs::observe("sched.visit_wall_us", us);
                                        let slow = obs::prof::slow_visit_us();
                                        if slow > 0 && us >= slow {
                                            obs::prof::dump_forensic(
                                                "slow_visit",
                                                &[
                                                    ("item", i.to_string()),
                                                    ("wall_us", us.to_string()),
                                                ],
                                            );
                                        }
                                    }
                                    drop(visit_guard);
                                    obs::add("manager.items", 1);
                                    out.push((i as usize, r));
                                    remaining.fetch_sub(1, Ordering::AcqRel);
                                }
                                Err(payload) => {
                                    let msg = panic_message(payload.as_ref());
                                    obs::prof::dump_forensic(
                                        "worker_panic",
                                        &[("item", i.to_string()), ("panic", msg.clone())],
                                    );
                                    drop(visit_guard);
                                    obs::add("manager.panics", 1);
                                    let mut slot = first_panic.lock().unwrap();
                                    if slot.is_none() {
                                        *slot = Some((Some(i as usize), msg));
                                    }
                                    abort.store(true, Ordering::Relaxed);
                                    break 'work;
                                }
                            }
                        }
                    }
                    stats.flush();
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|payload| {
                    // Worker closures catch `init`/`step` panics, so this
                    // only fires on a panic in the scheduler itself (or in
                    // telemetry); still report it rather than aborting.
                    let mut slot = first_panic.lock().unwrap();
                    if slot.is_none() {
                        *slot = Some((None, panic_message(payload.as_ref())));
                    }
                    Vec::new()
                })
            })
            .collect()
    });

    if let Some((item, msg)) = first_panic.into_inner().unwrap() {
        match item {
            Some(i) => panic!("worker panicked on item {i}: {msg}"),
            None => panic!("worker init panicked: {msg}"),
        }
    }

    // Merge per-worker buffers in item (rank) order. O(n) results storage
    // is inherent in returning `Vec<R>`; the point is there are no longer
    // 2n mutexes guarding it.
    let mut merged: Vec<Option<R>> = Vec::with_capacity(n);
    merged.resize_with(n, || None);
    for buf in buffers {
        for (i, r) in buf {
            debug_assert!(merged[i].is_none(), "item {i} produced twice");
            merged[i] = Some(r);
        }
    }
    merged.into_iter().map(|r| r.expect("all items processed")).collect()
}

/// Pick the victim with the most remaining work and steal its back half.
/// Rescans on a lost race; returns `None` once every range reads empty.
fn steal_from_busiest(ranges: &[Range], thief: usize) -> Option<(u32, u32)> {
    loop {
        let victim = ranges
            .iter()
            .enumerate()
            .filter(|(v, _)| *v != thief)
            .map(|(v, r)| (r.len(), v))
            .max()?;
        let (len, v) = victim;
        if len == 0 {
            return None;
        }
        if let Some(interval) = ranges[v].steal_back() {
            return Some(interval);
        }
        // The victim drained between the scan and the CAS; look again.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn processes_all_items_in_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = run_parallel(items, 4, |_| 0u64, |state, _i, item| {
            *state += 1;
            item * 2
        });
        assert_eq!(out.len(), 100);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i as u64) * 2);
        }
    }

    #[test]
    fn single_worker_works() {
        let out = run_parallel(vec![1, 2, 3], 1, |_| (), |_, _, x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn empty_input() {
        let out: Vec<i32> = run_parallel(Vec::<i32>::new(), 8, |_| (), |_, _, x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_workers_than_items() {
        let out = run_parallel(vec![10, 20], 8, |_| (), |_, _, x| x + 1);
        assert_eq!(out, vec![11, 21]);
    }

    #[test]
    fn explicit_chunk_sizes_cover_all_items() {
        for chunk in [1, 2, 3, 7, 64, 1000] {
            let out = run_parallel_chunked(
                (0..333u64).collect::<Vec<_>>(),
                5,
                chunk,
                |_| (),
                |_, _, x| x * 3,
            );
            assert_eq!(out.len(), 333, "chunk {chunk}");
            for (i, v) in out.iter().enumerate() {
                assert_eq!(*v, (i as u64) * 3, "chunk {chunk}");
            }
        }
    }

    #[test]
    fn worker_panic_reports_item_index() {
        let caught = std::panic::catch_unwind(|| {
            run_parallel(
                (0..20).collect::<Vec<u32>>(),
                2,
                |_| (),
                |_, i, x: u32| {
                    if x == 7 {
                        panic!("synthetic failure");
                    }
                    i
                },
            )
        });
        let payload = caught.expect_err("panic should propagate");
        let msg = super::panic_message(payload.as_ref());
        assert!(msg.contains("item 7"), "message was: {msg}");
        assert!(msg.contains("synthetic failure"), "message was: {msg}");
    }

    #[test]
    fn init_panic_reports_init() {
        let caught = std::panic::catch_unwind(|| {
            run_parallel(
                vec![1, 2, 3],
                1,
                |_| -> () { panic!("bad init") },
                |_, _, x: i32| x,
            )
        });
        let payload = caught.expect_err("panic should propagate");
        let msg = super::panic_message(payload.as_ref());
        assert!(msg.contains("init"), "message was: {msg}");
        assert!(msg.contains("bad init"), "message was: {msg}");
    }

    #[test]
    fn per_worker_state_is_isolated() {
        // Each worker counts its own processed items; totals must equal n.
        let counts = Mutex::new(Vec::new());
        run_parallel(
            (0..50).collect::<Vec<_>>(),
            3,
            |_| 0usize,
            |state, _, _| {
                *state += 1;
                counts.lock().unwrap().push(());
            },
        );
        assert_eq!(counts.lock().unwrap().len(), 50);
    }

    #[test]
    fn steals_rebalance_a_skewed_load() {
        // Worker 0's seeded half is 100× slower than the rest; with
        // stealing, the fast workers must end up processing some of it.
        use std::collections::HashSet;
        let slow_done_by = Mutex::new(HashSet::new());
        let n = 64usize;
        run_parallel_chunked(
            (0..n).collect::<Vec<_>>(),
            4,
            1,
            |w| w,
            |w, i, _| {
                if i < n / 4 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    slow_done_by.lock().unwrap().insert(*w);
                }
            },
        );
        // All slow items were processed; under any plausible schedule at
        // least one was stolen by a worker other than its seeded owner —
        // but a single-core box may legitimately let worker 0 finish them
        // all, so only assert the work completed.
        assert!(!slow_done_by.lock().unwrap().is_empty());
    }

    #[test]
    fn range_pack_roundtrips() {
        let r = Range::new(3, 10);
        assert_eq!(r.len(), 7);
        assert_eq!(r.claim_front(2), Some((3, 5)));
        assert_eq!(r.steal_back(), Some((8, 10)));
        assert_eq!(r.len(), 3);
        assert_eq!(r.claim_front(0), Some((5, 6)));
        assert_eq!(r.claim_front(100), Some((6, 8)));
        assert_eq!(r.claim_front(1), None);
        assert_eq!(r.steal_back(), None);
    }
}
