//! The task manager: parallel work distribution across browser workers.
//!
//! Real OpenWPM's TaskManager fans site visits out to browser processes,
//! monitors liveliness and restarts crashed browsers. Interpreters here are
//! `!Send` (single-threaded realms), so parallelism is per-worker: each
//! worker thread builds its own state (browsers) via `init` and consumes
//! work items. Results come back in input order. Crawls reach the queue
//! only through [`crate::run_supervised`].
//!
//! # Scheduling
//!
//! One shared queue: the enumerated items behind a `Mutex`. Each worker
//! pops one item at a time and holds the lock only for the pop, never
//! across a visit, so a slow visit holds back no item another worker could
//! take. A visit costs 0.25–2.4 ms and the pop under 0.2 µs at two
//! workers (EXPERIMENTS.md, "One work queue"), so finer-grained schemes
//! buy nothing a crawl can measure.
//!
//! Results are pushed into per-worker buffers and merged in item (rank)
//! order after the scope joins, which is why every downstream artifact —
//! telemetry digest, per-site records, bundle manifests — is
//! byte-identical at any worker count.
//!
//! Scheduling is observable as the `sched.visit_wall_us` wall latency
//! histogram; it reflects host timing and is excluded from the telemetry
//! digest (see `obs::NONDETERMINISTIC_PREFIXES`).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
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

/// Run `items` through per-worker state machines on `workers` threads.
///
/// * `init(worker_index)` builds the per-thread state (e.g. a `Browser`);
/// * `step(&mut state, item_index, item)` performs one visit.
///
/// Returns the results ordered by item index — the scheduler decides which
/// worker visits which item, but never the order of the output.
///
/// Workers record telemetry into the caller's current
/// [`obs::Telemetry`]: a crawl's scheduler metrics land in that crawl's
/// registry, and a caller that entered none records into the inert
/// default.
///
/// A panic inside `init` or `step` does not leave the other workers to
/// finish and then die on a secondary "all items processed" expect with the
/// real cause lost on another thread's stderr: the first panic is captured
/// with the item index it occurred on, remaining work is abandoned, and
/// `run_parallel` re-panics with a message naming the failing item.
pub(crate) fn run_parallel<W, R, S>(
    items: Vec<W>,
    workers: usize,
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

    let queue = Mutex::new(items.into_iter().enumerate());
    let abort = AtomicBool::new(false);
    // First captured panic: (item index if inside `step`, message).
    let first_panic: Mutex<Option<(Option<usize>, String)>> = Mutex::new(None);
    // Keep the first panic and stop the other workers: the run can no
    // longer complete.
    let fail = |item: Option<usize>, msg: String| {
        let mut slot = first_panic.lock().expect("the panic slot is only locked to store");
        slot.get_or_insert((item, msg));
        abort.store(true, Ordering::Relaxed);
    };
    let telemetry = obs::Telemetry::current();

    let buffers: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (queue, abort, fail, init, step) = (&queue, &abort, &fail, &init, &step);
                let telemetry = &telemetry;
                scope.spawn(move || {
                    let _telemetry = telemetry.enter();
                    let mut out: Vec<(usize, R)> = Vec::new();
                    let mut state = match catch_unwind(AssertUnwindSafe(|| init(w))) {
                        Ok(s) => s,
                        Err(payload) => {
                            fail(None, panic_message(payload.as_ref()));
                            return out;
                        }
                    };
                    while !abort.load(Ordering::Relaxed) {
                        // The guard drops at the end of this statement:
                        // the lock covers the pop, never the visit.
                        let next = queue.lock().expect("a pop cannot panic").next();
                        let Some((i, item)) = next else { break };
                        let t0 = obs::enabled().then(std::time::Instant::now);
                        // The VISIT guard lives outside the closure so a
                        // panicking step still leaves it on the phase
                        // stack when the forensic dump fires below.
                        let visit_guard = obs::prof::enter(&obs::prof::VISIT);
                        match catch_unwind(AssertUnwindSafe(|| step(&mut state, i, item))) {
                            Ok(r) => {
                                if let Some(t0) = t0 {
                                    let us = t0.elapsed().as_micros() as u64;
                                    obs::observe("sched.visit_wall_us", us);
                                }
                                drop(visit_guard);
                                obs::add("manager.items", 1);
                                out.push((i, r));
                            }
                            Err(payload) => {
                                let msg = panic_message(payload.as_ref());
                                obs::prof::dump_forensic(
                                    "worker_panic",
                                    &[("item", i.to_string()), ("panic", msg.clone())],
                                );
                                drop(visit_guard);
                                obs::add("manager.panics", 1);
                                fail(Some(i), msg);
                            }
                        }
                    }
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
                    fail(None, panic_message(payload.as_ref()));
                    Vec::new()
                })
            })
            .collect()
    });

    let first = first_panic.into_inner().expect("the panic slot is only locked to store");
    if let Some((item, msg)) = first {
        match item {
            Some(i) => panic!("worker panicked on item {i}: {msg}"),
            None => panic!("worker init panicked: {msg}"),
        }
    }

    // Merge per-worker buffers in item (rank) order.
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

/// `run_parallel` under the name perfbench calls; `chunk` is ignored.
/// It goes at the next benchmark change, when perfbench moves to
/// `run_supervised`.
#[doc(hidden)]
pub fn run_parallel_chunked<W: Send, R: Send, S>(
    items: Vec<W>,
    workers: usize,
    _chunk: usize,
    init: impl Fn(usize) -> S + Sync,
    step: impl Fn(&mut S, usize, W) -> R + Sync,
) -> Vec<R> {
    run_parallel(items, workers, init, step)
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

    /// A panic inside a step surfaces once and names the *correct* item
    /// index at any worker count: the shared queue may route the item to
    /// any worker, but never mislabel it.
    #[test]
    fn worker_panic_reports_item_index() {
        for workers in [1usize, 3, 8] {
            let caught = std::panic::catch_unwind(|| {
                run_parallel(
                    (0..100).collect::<Vec<u32>>(),
                    workers,
                    |_| (),
                    |_, i, x: u32| {
                        if x == 61 {
                            panic!("synthetic failure");
                        }
                        i
                    },
                )
            });
            let payload = caught.expect_err("panic should propagate");
            let msg = super::panic_message(payload.as_ref());
            assert!(msg.contains("item 61"), "workers={workers}: {msg}");
            assert!(msg.contains("synthetic failure"), "workers={workers}: {msg}");
        }
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
    fn a_blocked_item_does_not_hold_back_the_queue() {
        // Item 0 blocks until the other 49 items have completed, so the
        // run finishes only if no worker holds items it has not started.
        use std::sync::Condvar;
        use std::time::Duration;
        let completed = Mutex::new(0usize);
        let cv = Condvar::new();
        run_parallel((0..50).collect::<Vec<u32>>(), 2, |_| (), |_, i, _| {
            let mut done = completed.lock().unwrap();
            if i == 0 {
                let (done, wait) = cv
                    .wait_timeout_while(done, Duration::from_secs(10), |done| *done < 49)
                    .unwrap();
                assert!(!wait.timed_out(), "item 0 waited 10 s; {} of 49 completed", *done);
            } else {
                *done += 1;
                cv.notify_all();
            }
        });
    }
}
