//! The supervised crawl executor.
//!
//! Real OpenWPM wraps every site visit in a BrowserManager watchdog:
//! crashed browsers are restarted, hung visits are killed on a timeout,
//! failed commands are retried with backoff, and sites that exhaust their
//! retries are recorded in `crawl_history`/`incomplete_visits` instead of
//! aborting the crawl. The paper's reliability analysis depends on this
//! machinery: crawl completeness is the denominator of every reported
//! rate, so a crawler that dies (or silently skips) on the first flaky
//! site produces tables that cannot be trusted.
//!
//! [`run_supervised`] reproduces that layer on top of the crate's work
//! queue (`manager::run_parallel`), and is the one public crawl driver:
//! every scan and every leg of the WPM vs WPM_hide comparison runs
//! through it.
//!
//! * every visit attempt runs under `catch_unwind`, so a panicking visit
//!   poisons nothing — the worker's browser state is rebuilt and the site
//!   retried;
//! * injected faults (see [`crate::fault`]) are resolved *before* the
//!   visit, per `(fault key, attempt)`, keeping the crawl deterministic
//!   under any worker count;
//! * hangs are ended by a simulated-clock watchdog: the visit timeout is
//!   charged to the crawl clock and the browser restarted;
//! * retries follow a bounded exponential backoff ([`BASE_BACKOFF_MS`]
//!   doubling to [`MAX_BACKOFF_MS`]) with a per-site cap of
//!   [`MAX_ATTEMPTS`]; exhausted sites degrade gracefully into
//!   [`VisitOutcome::Failed`] with a typed [`FailureReason`];
//! * a per-item completion callback lets callers checkpoint finished work,
//!   and a `prior` vector replays checkpointed outcomes without
//!   re-visiting — the resume path.
//!
//! All time here is simulated (milliseconds on a crawl clock), never
//! wall-clock: results must not depend on host speed or scheduling.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::fault::{FaultInjector, FaultKind, FaultPlan};
use crate::manager::{panic_message, run_parallel};
use obs::Event;

/// Why a visit attempt (or a whole site) failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FailureReason {
    BrowserCrash,
    /// Visit exceeded the watchdog timeout and was killed.
    Timeout,
    NavigationError,
    TabCrash,
    TransientHttp,
    /// The visit spec's URL does not parse — the visit can never succeed,
    /// but the browser is healthy; the supervisor records the failure
    /// instead of crashing the worker.
    BadUrl,
    /// The visit code itself panicked (caught by `catch_unwind`).
    Panic,
}

impl FailureReason {
    pub fn as_str(self) -> &'static str {
        match self {
            FailureReason::BrowserCrash => "browser_crash",
            FailureReason::Timeout => "timeout",
            FailureReason::NavigationError => "navigation_error",
            FailureReason::TabCrash => "tab_crash",
            FailureReason::TransientHttp => "transient_http",
            FailureReason::BadUrl => "bad_url",
            FailureReason::Panic => "panic",
        }
    }

    /// Every reason, in reporting order.
    pub fn all() -> [FailureReason; 7] {
        [
            FailureReason::BrowserCrash,
            FailureReason::Timeout,
            FailureReason::NavigationError,
            FailureReason::TabCrash,
            FailureReason::TransientHttp,
            FailureReason::BadUrl,
            FailureReason::Panic,
        ]
    }

    /// Strict inverse of [`FailureReason::as_str`]: only exact canonical
    /// names parse. Bundles use this — an unrecognised name there means
    /// corruption.
    pub fn parse(s: &str) -> Option<FailureReason> {
        FailureReason::all().into_iter().find(|r| r.as_str() == s)
    }

    fn from_fault(kind: FaultKind) -> FailureReason {
        match kind {
            FaultKind::BrowserCrash => FailureReason::BrowserCrash,
            FaultKind::Hang => FailureReason::Timeout,
            FaultKind::NavigationError => FailureReason::NavigationError,
            FaultKind::TabCrash => FailureReason::TabCrash,
            FaultKind::TransientHttp => FailureReason::TransientHttp,
        }
    }
}

/// Total attempts per site, first try included.
pub const MAX_ATTEMPTS: u32 = 3;
/// Backoff before retry `k` (1-based) is `BASE_BACKOFF_MS << (k - 1)`,
/// capped at [`MAX_BACKOFF_MS`] — classic bounded exponential backoff.
pub const BASE_BACKOFF_MS: u64 = 1_000;
pub const MAX_BACKOFF_MS: u64 = 30_000;
/// Watchdog limit per visit on the simulated clock.
pub const VISIT_TIMEOUT_MS: u64 = 60_000;

/// Simulated backoff charged before retry number `retry` (1-based).
fn backoff_ms(retry: u32) -> u64 {
    let shift = (retry.saturating_sub(1)).min(20);
    (BASE_BACKOFF_MS << shift).min(MAX_BACKOFF_MS)
}

/// How one supervised item ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VisitOutcome<R> {
    Completed(R),
    /// All attempts exhausted; the site is skipped, not the crawl.
    Failed { reason: FailureReason, attempts: u32 },
    /// Never visited. No crawl produces it: every crawl runs to its end.
    /// It stays only because the benchmark harness matches on it
    /// (ROADMAP item 5); it goes at the next benchmark change.
    Interrupted,
}

impl<R> VisitOutcome<R> {
    pub fn completed(&self) -> Option<&R> {
        match self {
            VisitOutcome::Completed(r) => Some(r),
            _ => None,
        }
    }

    pub fn is_completed(&self) -> bool {
        matches!(self, VisitOutcome::Completed(_))
    }

    /// Map a completed item's record; failures and interruptions pass
    /// through unchanged.
    pub fn map<U>(self, f: impl FnOnce(R) -> U) -> VisitOutcome<U> {
        match self {
            VisitOutcome::Completed(r) => VisitOutcome::Completed(f(r)),
            VisitOutcome::Failed { reason, attempts } => VisitOutcome::Failed { reason, attempts },
            VisitOutcome::Interrupted => VisitOutcome::Interrupted,
        }
    }
}

/// Caller-provided identity of one work item, used for fault draws and
/// reporting.
#[derive(Clone, Debug)]
pub struct ItemMeta {
    /// Human-readable label (e.g. the site URL) for failure records.
    pub label: String,
    /// Deterministic fault-draw key (e.g. the site's rank).
    pub fault_key: u64,
    /// Whether the population marks this item as flaky (boosted rates).
    pub flaky: bool,
}

/// Aggregated crawl accounting — OpenWPM's `crawl_history` rollup.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CrawlSummary {
    pub total: usize,
    pub completed: usize,
    pub failed: usize,
    pub interrupted: usize,
    /// Completed on a retry rather than the first attempt.
    pub recovered: usize,
    /// `(reason, sites)` for exhausted sites, ordered as
    /// [`FailureReason::all`], zero-count reasons omitted.
    pub failures_by_reason: Vec<(FailureReason, usize)>,
    /// Visit attempts across all sites (≥ total visited).
    pub attempts: u64,
    /// Browser state rebuilds (crash, hang, tab crash, panic).
    pub restarts: u64,
    /// Simulated milliseconds lost to faults: timeouts plus backoff.
    pub lost_ms: u64,
    /// Torn bundle manifest lines cut off during resume.
    pub bundle_lines_dropped: usize,
}

impl CrawlSummary {
    /// Fraction of items that completed (the coverage denominator).
    pub fn completion_rate(&self) -> f64 {
        if self.total == 0 {
            return 1.0;
        }
        self.completed as f64 / self.total as f64
    }

    /// One-line coverage statement printed under every table.
    pub fn coverage_line(&self) -> String {
        let mut line = format!(
            "coverage: {}/{} sites completed ({:.1}%)",
            self.completed,
            self.total,
            100.0 * self.completion_rate()
        );
        if self.failed > 0 {
            let detail: Vec<String> = self
                .failures_by_reason
                .iter()
                .map(|(r, n)| format!("{} {}", n, r.as_str()))
                .collect();
            line.push_str(&format!("; {} failed ({})", self.failed, detail.join(", ")));
        }
        if self.interrupted > 0 {
            line.push_str(&format!("; {} interrupted", self.interrupted));
        }
        if self.bundle_lines_dropped > 0 {
            line.push_str(&format!("; {} bundle lines dropped", self.bundle_lines_dropped));
        }
        line
    }
}

/// Everything a supervised run produces.
#[derive(Clone, Debug)]
pub struct CrawlOutcome<R> {
    /// Per-item outcome, in item order.
    pub outcomes: Vec<VisitOutcome<R>>,
    /// Visit attempts consumed per item this run (0 for replayed priors).
    pub attempts: Vec<u32>,
    pub summary: CrawlSummary,
}

/// Per-item bookkeeping carried back through `run_parallel`.
struct ItemRun<R> {
    outcome: VisitOutcome<R>,
    /// Visit attempts this run (0 when the item was not visited).
    attempts: u32,
    restarts: u64,
    lost_ms: u64,
    /// Telemetry events buffered during this item's visit scope; written
    /// to the journal in item order by the coordinator.
    trace: Vec<Event>,
}

/// Supervised parallel execution: fault injection, watchdog timeouts,
/// retry with backoff, browser restarts, graceful failure records, and
/// checkpoint/resume hooks.
///
/// * `faults` is the crawl's injected weather ([`FaultPlan::none`] for a
///   clean crawl);
/// * `meta(item)` names the item and keys its fault draws;
/// * `init(worker)` builds per-worker browser state; it is re-invoked to
///   restart that state after a crash/hang/panic, once the old state has
///   dropped;
/// * `visit(&mut state, index, &item)` performs one attempt. An `Err`
///   attempt (e.g. an unparseable visit URL) leaves the browser healthy
///   and is retried under the same policy as injected faults;
///   exhausted items surface as [`VisitOutcome::Failed`] with the visit's
///   reason;
/// * `prior[i] = Some(outcome)` replays a checkpointed result for item
///   `i` without visiting (pass an empty vec for a fresh run);
/// * `on_complete(index, outcome, attempts)` fires once per
///   newly-determined item (not for replayed priors), from worker
///   threads, inside the item's still-open telemetry scope — checkpoint
///   writers must synchronise internally. It takes the full outcome and
///   returns the form the outcome vector keeps: a streaming crawl flushes
///   each record to disk here and keeps O(1) bookkeeping, so the outcome
///   vector's resident size is `O(items × size_of::<T>())`, not
///   `O(items × size_of::<R>())`. Priors arrive in that kept form.
#[allow(clippy::too_many_arguments)]
pub fn run_supervised<W, R, T, S>(
    items: Vec<W>,
    workers: usize,
    faults: FaultPlan,
    meta: impl Fn(&W) -> ItemMeta + Sync,
    init: impl Fn(usize) -> S + Sync,
    visit: impl Fn(&mut S, usize, &W) -> Result<R, FailureReason> + Sync,
    prior: Vec<Option<VisitOutcome<T>>>,
    on_complete: impl Fn(usize, VisitOutcome<R>, u32) -> VisitOutcome<T> + Sync,
) -> CrawlOutcome<T>
where
    W: Send,
    R: Send,
    T: Send,
{
    let n = items.len();
    let injector = FaultInjector::new(faults);
    let mut prior = prior.into_iter();
    let work: Vec<(W, Option<VisitOutcome<T>>)> =
        items.into_iter().map(|item| (item, prior.next().flatten())).collect();

    // No `workers` attribute: the journal must be byte-identical across
    // worker counts (scheduling never reaches the trace).
    obs::emit(Event::new(0, "crawl_start").attr("items", n));

    // A restart drops the old browser state before `init` builds the new
    // one: the state may hold guards that restore the thread's context on
    // drop (an entered crawl context), and dropping them after `init` ran
    // would undo what `init` entered.
    let restart = |state: &mut Option<S>, worker: usize, restarts: &mut u64| {
        *state = None;
        *state = Some(init(worker));
        *restarts += 1;
        obs::add("supervisor.restarts", 1);
        obs::emit(Event::new(0, "browser_restart"));
    };
    let runs: Vec<ItemRun<T>> = run_parallel(
        work,
        workers,
        |w| (w, Some(init(w))),
        |(worker, state), i, (item, replay)| {
            // Dropped without `end` only when the visit unwinds out of the
            // worker: the scope still merges the metrics it counted.
            let scope = obs::begin_scope();
            if let Some(outcome) = replay {
                obs::add("checkpoint.replays", 1);
                obs::emit(Event::new(0, "checkpoint_replay").attr("item", i));
                let trace = scope.end();
                return ItemRun { outcome, attempts: 0, restarts: 0, lost_ms: 0, trace };
            }
            let t0 = obs::prof::recorder_armed().then(std::time::Instant::now);
            let m = meta(&item);
            obs::add("supervisor.visits", 1);
            let visit_span = obs::span("visit");
            obs::emit(
                Event::new(0, "visit_start")
                    .attr("item", i)
                    .attr("label", m.label.as_str())
                    .attr("flaky", m.flaky as u64),
            );
            let mut attempts = 0u32;
            let mut restarts = 0u64;
            let mut lost_ms = 0u64;
            let outcome = loop {
                attempts += 1;
                obs::add("supervisor.attempts", 1);
                if attempts > 1 {
                    obs::add("supervisor.retries", 1);
                }
                let attempt_span = obs::span("attempt");
                obs::emit(Event::new(0, "attempt").attr("n", attempts));
                let failure: FailureReason = match injector.draw(m.fault_key, attempts, m.flaky)
                {
                    Some(kind) => {
                        let reason = FailureReason::from_fault(kind);
                        obs::add("supervisor.faults", 1);
                        obs::emit(
                            Event::new(0, "fault")
                                .attr("reason", reason.as_str())
                                .attr("attempt", attempts),
                        );
                        match kind {
                            FaultKind::Hang => {
                                // Watchdog: the visit burns its full
                                // timeout, then the browser is killed.
                                lost_ms += VISIT_TIMEOUT_MS;
                                obs::clock_advance(VISIT_TIMEOUT_MS);
                                obs::emit(
                                    Event::new(0, "watchdog_timeout").attr("ms", VISIT_TIMEOUT_MS),
                                );
                                restart(state, *worker, &mut restarts);
                            }
                            FaultKind::BrowserCrash => restart(state, *worker, &mut restarts),
                            FaultKind::TabCrash => {
                                // The content process dies mid-visit: the
                                // attempt's work happens and is lost.
                                let _ = catch_unwind(AssertUnwindSafe(|| {
                                    visit(live(state), i, &item)
                                }));
                                restart(state, *worker, &mut restarts);
                            }
                            // Navigation and transport errors fail fast
                            // and leave the browser healthy.
                            FaultKind::NavigationError | FaultKind::TransientHttp => {}
                        }
                        reason
                    }
                    None => match catch_unwind(AssertUnwindSafe(|| visit(live(state), i, &item))) {
                        Ok(Ok(r)) => {
                            drop(attempt_span);
                            break VisitOutcome::Completed(r);
                        }
                        Ok(Err(reason)) => {
                            // Typed visit failure: the browser stays
                            // healthy (no restart), the attempt is charged
                            // and retried under the normal policy.
                            obs::emit(
                                Event::new(0, "visit_error")
                                    .attr("reason", reason.as_str())
                                    .attr("attempt", attempts),
                            );
                            obs::prof::dump_forensic(
                                "visit_error",
                                &[
                                    ("item", i.to_string()),
                                    ("label", m.label.clone()),
                                    ("reason", reason.as_str().to_string()),
                                    ("attempt", attempts.to_string()),
                                ],
                            );
                            reason
                        }
                        Err(payload) => {
                            // Keep the cause visible even though the crawl
                            // survives it.
                            let msg = panic_message(payload.as_ref());
                            obs::emit(Event::new(0, "visit_panic").attr("attempt", attempts));
                            obs::prof::dump_forensic(
                                "visit_panic",
                                &[
                                    ("item", i.to_string()),
                                    ("label", m.label.clone()),
                                    ("panic", msg),
                                    ("attempt", attempts.to_string()),
                                ],
                            );
                            restart(state, *worker, &mut restarts);
                            FailureReason::Panic
                        }
                    },
                };
                drop(attempt_span);
                if attempts >= MAX_ATTEMPTS {
                    obs::prof::dump_forensic(
                        "visit_failed",
                        &[
                            ("item", i.to_string()),
                            ("label", m.label.clone()),
                            ("reason", failure.as_str().to_string()),
                            ("attempts", attempts.to_string()),
                        ],
                    );
                    break VisitOutcome::Failed { reason: failure, attempts };
                }
                let backoff = backoff_ms(attempts);
                lost_ms += backoff;
                obs::clock_advance(backoff);
                obs::observe("supervisor.backoff_ms", backoff);
                obs::emit(
                    Event::new(0, "retry_backoff").attr("ms", backoff).attr("attempt", attempts),
                );
            };
            obs::observe("supervisor.attempts_per_visit", attempts as u64);
            obs::emit(
                Event::new(0, "visit_end")
                    .attr("outcome", outcome_label(&outcome))
                    .attr("attempts", attempts),
            );
            // `on_complete` runs inside the still-open visit scope so that
            // checkpoint-write events land in this visit's trace.
            let stored = on_complete(i, outcome, attempts);
            if let Some(t0) = t0 {
                obs::prof::offer_slow_visit(i, &m.label, t0.elapsed().as_micros() as u64);
            }
            drop(visit_span);
            ItemRun { outcome: stored, attempts, restarts, lost_ms, trace: scope.end() }
        },
    );

    if let Some(journal) = obs::journal() {
        journal.write_crawl_visits(runs.iter().map(|run| run.trace.as_slice()));
    }

    let mut summary = CrawlSummary { total: n, ..CrawlSummary::default() };
    let mut by_reason: std::collections::HashMap<FailureReason, usize> =
        std::collections::HashMap::new();
    let mut outcomes = Vec::with_capacity(n);
    let mut attempts_per_item = Vec::with_capacity(n);
    for run in runs {
        attempts_per_item.push(run.attempts);
        summary.attempts += run.attempts as u64;
        summary.restarts += run.restarts;
        summary.lost_ms += run.lost_ms;
        match &run.outcome {
            VisitOutcome::Completed(_) => {
                summary.completed += 1;
                if run.attempts > 1 {
                    summary.recovered += 1;
                }
            }
            VisitOutcome::Failed { reason, .. } => {
                summary.failed += 1;
                *by_reason.entry(*reason).or_insert(0) += 1;
            }
            VisitOutcome::Interrupted => summary.interrupted += 1,
        }
        outcomes.push(run.outcome);
    }
    summary.failures_by_reason = FailureReason::all()
        .into_iter()
        .filter_map(|r| by_reason.get(&r).map(|&n| (r, n)))
        .collect();
    obs::add("supervisor.visits.completed", summary.completed as u64);
    obs::add("supervisor.visits.failed", summary.failed as u64);
    obs::add("supervisor.visits.interrupted", summary.interrupted as u64);
    obs::emit(
        Event::new(0, "crawl_end")
            .attr("completed", summary.completed)
            .attr("failed", summary.failed)
            .attr("interrupted", summary.interrupted)
            .attr("attempts", summary.attempts)
            .attr("restarts", summary.restarts)
            .attr("lost_ms", summary.lost_ms),
    );
    CrawlOutcome { outcomes, attempts: attempts_per_item, summary }
}

/// A worker's browser state. It is `None` only inside a restart, between
/// dropping the old state and building the new one.
fn live<S>(state: &mut Option<S>) -> &mut S {
    state.as_mut().expect("a restart rebuilds the worker state before the next visit")
}

fn outcome_label<R>(outcome: &VisitOutcome<R>) -> &str {
    match outcome {
        VisitOutcome::Completed(_) => "completed",
        VisitOutcome::Failed { reason, .. } => reason.as_str(),
        VisitOutcome::Interrupted => "interrupted",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};

    #[test]
    fn failure_reason_round_trips_and_rejects_garbage() {
        for r in FailureReason::all() {
            assert_eq!(FailureReason::parse(r.as_str()), Some(r), "{}", r.as_str());
        }
        proplite::run_cases(2000, 0xFA11, |rng| {
            let s = match rng.u32_in(0, 2) {
                0 => rng.ascii(0, 24),
                1 => rng.any_string(0, 24),
                // Near-misses: a valid name with one mutation.
                _ => {
                    let all = FailureReason::all();
                    let base = all[rng.usize_in(0, all.len() - 1)].as_str();
                    let mut s = base.to_string();
                    match rng.u32_in(0, 2) {
                        0 => s.push('x'),
                        1 => s = s.to_uppercase(),
                        _ => {
                            s.pop();
                        }
                    }
                    s
                }
            };
            match FailureReason::parse(&s) {
                // parse may only accept exact canonical names.
                Some(r) => assert_eq!(r.as_str(), s),
                None => assert!(
                    FailureReason::all().iter().all(|r| r.as_str() != s),
                    "rejected a canonical name: {s:?}"
                ),
            }
        });
    }

    #[test]
    fn completion_hook_sees_the_full_record_and_returns_the_kept_form() {
        let hook_saw = Mutex::new(Vec::new());
        let out = run_supervised(
            (0..10u64).collect(),
            2,
            FaultPlan::none(),
            meta_of,
            |_| (),
            |_, _, item: &u64| Ok(vec![*item; 100]),
            Vec::new(),
            |i, o: VisitOutcome<Vec<u64>>, attempts| {
                assert_eq!(attempts, 1);
                o.map(|r| {
                    assert_eq!(r.len(), 100, "hook must see the full record");
                    hook_saw.lock().unwrap().push(i);
                    (i as u64, r.len() as u64)
                })
            },
        );
        assert_eq!(out.summary.completed, 10);
        for (i, o) in out.outcomes.iter().enumerate() {
            assert_eq!(o.completed(), Some(&(i as u64, 100)));
        }
        assert_eq!(hook_saw.into_inner().unwrap().len(), 10);
    }

    fn meta_of(x: &u64) -> ItemMeta {
        ItemMeta { label: format!("item-{x}"), fault_key: *x, flaky: false }
    }

    /// Completion hook that keeps every outcome as it is.
    fn keep<R>(_: usize, o: VisitOutcome<R>, _: u32) -> VisitOutcome<R> {
        o
    }

    fn run_plain(
        items: Vec<u64>,
        workers: usize,
        faults: FaultPlan,
    ) -> CrawlOutcome<u64> {
        run_supervised(
            items,
            workers,
            faults,
            meta_of,
            |_| 0u64,
            |state, _, item| {
                *state += 1;
                Ok(item * 2)
            },
            Vec::new(),
            keep,
        )
    }

    #[test]
    fn clean_run_completes_everything() {
        let out = run_plain((0..100).collect(), 4, FaultPlan::none());
        assert_eq!(out.summary.completed, 100);
        assert_eq!(out.summary.failed, 0);
        assert_eq!(out.summary.completion_rate(), 1.0);
        for (i, o) in out.outcomes.iter().enumerate() {
            assert_eq!(o.completed(), Some(&((i as u64) * 2)));
        }
    }

    #[test]
    fn panicking_visits_degrade_to_failed_records() {
        let out = run_supervised(
            (0..50u64).collect(),
            3,
            FaultPlan::none(),
            meta_of,
            |_| (),
            |_, _, item: &u64| {
                if item % 10 == 3 {
                    panic!("visit exploded");
                }
                Ok(*item)
            },
            Vec::new(),
            keep,
        );
        assert_eq!(out.summary.completed, 45);
        assert_eq!(out.summary.failed, 5);
        assert_eq!(
            out.summary.failures_by_reason,
            vec![(FailureReason::Panic, 5)]
        );
        // Each panicking site burned max_attempts and restarted each time.
        assert_eq!(out.summary.restarts, 5 * MAX_ATTEMPTS as u64);
        for (i, o) in out.outcomes.iter().enumerate() {
            if i % 10 == 3 {
                assert_eq!(
                    *o,
                    VisitOutcome::Failed {
                        reason: FailureReason::Panic,
                        attempts: MAX_ATTEMPTS
                    }
                );
            } else {
                assert!(o.is_completed());
            }
        }
    }

    #[test]
    fn failed_visits_leave_explainable_forensics() {
        let path = proplite::TempDir::new("supervisor-forensics");
        let telemetry = obs::Telemetry::new().with_forensics(&path).expect("arm flight recorder");
        let out = {
            let _g = telemetry.enter();
            run_supervised(
                vec![1u64, 2, 3],
                2,
                FaultPlan::none(),
                meta_of,
                |_| (),
                |_, _, item: &u64| if *item == 2 { Err(FailureReason::BadUrl) } else { Ok(*item) },
                Vec::new(),
                keep,
            )
        };
        let bad_url = VisitOutcome::Failed { reason: FailureReason::BadUrl, attempts: MAX_ATTEMPTS };
        assert_eq!(out.outcomes[1], bad_url);
        let text = std::fs::read_to_string(&path).expect("a failed visit must leave a dump");
        let summary = obs::validate::validate_forensic(&text).expect("parseable forensic dumps");
        let count = |trigger: &str| summary.triggers.iter().filter(|(t, _)| t == trigger).count();
        // One `visit_error` per attempt, one `visit_failed` when they run out.
        assert_eq!(count("visit_error"), MAX_ATTEMPTS as usize, "{:?}", summary.triggers);
        assert_eq!(count("visit_failed"), 1, "{:?}", summary.triggers);
        assert_eq!(summary.dumps, MAX_ATTEMPTS as usize + 1);
        for (trigger, phase) in &summary.triggers {
            assert!(phase.starts_with("visit"), "{trigger} dumped in phase {phase}");
        }
        assert!(text.contains(r#""reason":"bad_url""#), "{text}");
        assert!(text.contains(r#""label":"item-2""#), "the dumps name their item: {text}");
        assert!(summary.ring_events > 0, "empty flight-recorder ring");
    }

    #[test]
    fn injected_faults_retry_and_mostly_recover() {
        let faults = FaultPlan::adversarial(99);
        let out = run_plain((0..2000).collect(), 4, faults);
        assert_eq!(out.summary.total, 2000);
        // ~8% of first attempts fault but retries clear most: overall
        // completion must stay high.
        assert!(
            out.summary.completion_rate() > 0.95,
            "completion {:.3}",
            out.summary.completion_rate()
        );
        assert!(out.summary.recovered > 0, "no site ever needed a retry");
        // Completed values are still correct after retries.
        for (i, o) in out.outcomes.iter().enumerate() {
            if let Some(v) = o.completed() {
                assert_eq!(*v, (i as u64) * 2);
            }
        }
    }

    #[test]
    fn outcomes_are_deterministic_across_worker_counts() {
        let faults = FaultPlan::adversarial(7);
        let a = run_plain((0..500).collect(), 1, faults);
        let b = run_plain((0..500).collect(), 4, faults);
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.summary, b.summary);
    }

    #[test]
    fn hang_charges_timeout_and_restarts() {
        // A plan that only hangs, always.
        let faults = FaultPlan {
                hang_per_mille: 1000,
                seed: 1,
                ..FaultPlan::default()
            };
        let out = run_plain(vec![1, 2, 3], 1, faults);
        assert_eq!(out.summary.failed, 3);
        assert_eq!(
            out.summary.failures_by_reason,
            vec![(FailureReason::Timeout, 3)]
        );
        // 3 attempts × 60 s timeout + backoffs of 1 s and 2 s, per item.
        assert_eq!(out.summary.lost_ms, 3 * (3 * 60_000 + 1_000 + 2_000));
        assert_eq!(out.summary.restarts, 9);
    }

    #[test]
    fn browser_crash_restarts_and_retries() {
        // A plan that only crashes the browser, always.
        let faults = FaultPlan { crash_per_mille: 1000, seed: 1, ..FaultPlan::default() };
        let inits = AtomicUsize::new(0);
        let out = run_supervised(
            vec![1u64, 2],
            1,
            faults,
            meta_of,
            |_| {
                inits.fetch_add(1, Ordering::Relaxed);
            },
            |_, _, item: &u64| Ok(*item),
            Vec::new(),
            keep,
        );
        let failed = VisitOutcome::Failed { reason: FailureReason::BrowserCrash, attempts: 3 };
        assert_eq!(out.outcomes, vec![failed.clone(), failed]);
        assert_eq!(out.summary.failures_by_reason, vec![(FailureReason::BrowserCrash, 2)]);
        // Every attempt restarts the browser state: one initial build plus
        // one per attempt. A crash costs no watchdog time, only backoff.
        assert_eq!(out.summary.restarts, 6);
        assert_eq!(inits.load(Ordering::Relaxed), 1 + 6);
        assert_eq!(out.summary.lost_ms, 2 * (1_000 + 2_000));
    }

    #[test]
    fn a_restart_keeps_the_context_init_entered() {
        // An item whose first attempt crashes the browser and whose second
        // runs clean.
        let faults = FaultPlan { crash_per_mille: 500, seed: 3, ..FaultPlan::default() };
        let injector = FaultInjector::new(faults);
        let key = (0u64..)
            .find(|&k| {
                injector.draw(k, 1, false) == Some(FaultKind::BrowserCrash)
                    && injector.draw(k, 2, false).is_none()
            })
            .unwrap();
                let ctx = jsengine::JsCtx::new();
        let out = run_supervised(
            vec![key],
            1,
            faults,
            meta_of,
            |_| ctx.enter(),
            |_, _, _: &u64| Ok(Arc::ptr_eq(&jsengine::JsCtx::current().cache, &ctx.cache)),
            Vec::new(),
            keep,
        );
        assert_eq!(out.summary.restarts, 1);
        assert_eq!(out.attempts, vec![2]);
        assert_eq!(
            out.outcomes,
            vec![VisitOutcome::Completed(true)],
            "the visit after the restart must run in the context init entered"
        );
    }

    #[test]
    fn tab_crash_discards_work_and_restarts() {
        let faults = FaultPlan {
                tab_crash_per_mille: 1000,
                seed: 1,
                ..FaultPlan::default()
            };
        let visits = AtomicUsize::new(0);
        let out = run_supervised(
            vec![1u64],
            1,
            faults,
            meta_of,
            |_| (),
            |_, _, item: &u64| {
                visits.fetch_add(1, Ordering::Relaxed);
                Ok(*item)
            },
            Vec::new(),
            keep,
        );
        // Every attempt's visit ran (work happened) but its result was lost.
        assert_eq!(visits.load(Ordering::Relaxed), 3);
        assert_eq!(
            out.outcomes[0],
            VisitOutcome::Failed { reason: FailureReason::TabCrash, attempts: 3 }
        );
        assert_eq!(out.summary.restarts, 3);
    }

    #[test]
    fn backoff_is_bounded_exponential() {
        let schedule: Vec<u64> = (1..=8).map(backoff_ms).collect();
        assert_eq!(schedule, [1_000, 2_000, 4_000, 8_000, 16_000, 30_000, 30_000, 30_000]);
        assert_eq!(backoff_ms(u32::MAX), MAX_BACKOFF_MS);
    }

    #[test]
    fn priors_replay_without_revisiting() {
        let visited = Mutex::new(Vec::new());
        let mut prior: Vec<Option<VisitOutcome<u64>>> = vec![None; 10];
        prior[3] = Some(VisitOutcome::Completed(999));
        prior[7] = Some(VisitOutcome::Failed {
            reason: FailureReason::Timeout,
            attempts: 3,
        });
        let out = run_supervised(
            (0..10u64).collect(),
            2,
            FaultPlan::none(),
            meta_of,
            |_| (),
            |_, i, item: &u64| {
                visited.lock().unwrap().push(i);
                Ok(*item)
            },
            prior,
            keep,
        );
        let mut visited = visited.into_inner().unwrap();
        visited.sort_unstable();
        assert_eq!(visited, vec![0, 1, 2, 4, 5, 6, 8, 9]);
        assert_eq!(out.outcomes[3], VisitOutcome::Completed(999));
        assert_eq!(
            out.outcomes[7],
            VisitOutcome::Failed { reason: FailureReason::Timeout, attempts: 3 }
        );
        assert_eq!(out.summary.completed, 9);
        assert_eq!(out.summary.failed, 1);
    }

    #[test]
    fn on_complete_fires_for_fresh_items_only() {
        let seen = Mutex::new(Vec::new());
        let mut prior: Vec<Option<VisitOutcome<u64>>> = vec![None; 6];
        prior[0] = Some(VisitOutcome::Completed(0));
        run_supervised(
            (0..6u64).collect(),
            1,
            FaultPlan::none(),
            meta_of,
            |_| (),
            |_, _, item: &u64| Ok(*item),
            prior,
            |i, o, _| {
                seen.lock().unwrap().push(i);
                o
            },
        );
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn interrupted_then_resumed_equals_uninterrupted() {
        let faulty = FaultPlan::adversarial(13);
        let full = run_plain((0..200).collect(), 3, faulty);

        // A kill after the first 80 items leaves their outcomes as the
        // checkpoint; the resume takes them as priors.
        let prior: Vec<Option<VisitOutcome<u64>>> = full
            .outcomes
            .iter()
            .enumerate()
            .map(|(i, o)| (i < 80).then(|| o.clone()))
            .collect();
        let resumed = run_supervised(
            (0..200u64).collect(),
            3,
            faulty,
            meta_of,
            |_| 0u64,
            |state, _, item| {
                *state += 1;
                Ok(item * 2)
            },
            prior,
            keep,
        );
        assert_eq!(resumed.outcomes, full.outcomes);
        // Only the 120 items without a prior were visited.
        assert!(resumed.attempts[..80].iter().all(|&a| a == 0));
        assert!(resumed.attempts[80..].iter().all(|&a| a > 0));
        assert_eq!(resumed.summary.completed, full.summary.completed);
        assert_eq!(resumed.summary.failed, full.summary.failed);
        assert_eq!(
            resumed.summary.failures_by_reason,
            full.summary.failures_by_reason
        );
    }

    #[test]
    fn coverage_line_reports_breakdown() {
        let mut s = CrawlSummary {
            total: 1000,
            completed: 950,
            failed: 40,
            interrupted: 10,
            ..CrawlSummary::default()
        };
        s.failures_by_reason =
            vec![(FailureReason::BrowserCrash, 30), (FailureReason::Timeout, 10)];
        let line = s.coverage_line();
        assert!(line.contains("950/1000"));
        assert!(line.contains("95.0%"));
        assert!(line.contains("30 browser_crash"));
        assert!(line.contains("10 timeout"));
        assert!(line.contains("10 interrupted"));
    }
}
