//! Tests of the vendored rayon's persistent worker pool: panics reach the
//! caller with their own payload, nested calls run inline and keep index
//! order, concurrent callers share the pool, and no call is served by
//! more threads than its budget.
//!
//! The vendored crates are not default members, so their own unit tests
//! do not run under a plain `cargo test`; these do. Everything that sets
//! `RAYON_NUM_THREADS` runs inside one `#[test]`, because the variable is
//! process-wide; the other tests hold at any budget.

use std::collections::HashSet;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Condvar, Mutex};
use std::thread::{self, ThreadId};
use std::time::Duration;

use rayon::prelude::*;

/// How long a rendezvous waits before it reports that too few threads
/// took part, instead of hanging the test.
const RENDEZVOUS_TIMEOUT: Duration = Duration::from_secs(30);

/// A meeting point for `parties` threads that gives up after
/// [`RENDEZVOUS_TIMEOUT`].
struct Rendezvous {
    arrived: Mutex<usize>,
    all_here: Condvar,
    parties: usize,
}

impl Rendezvous {
    fn new(parties: usize) -> Self {
        Self {
            arrived: Mutex::new(0),
            all_here: Condvar::new(),
            parties,
        }
    }

    /// Arrive and wait for the others; `false` if they did not come.
    fn meet(&self) -> bool {
        let mut arrived = self.arrived.lock().expect("no party panics here");
        *arrived += 1;
        self.all_here.notify_all();
        let (arrived, timeout) = self
            .all_here
            .wait_timeout_while(arrived, RENDEZVOUS_TIMEOUT, |a| *a < self.parties)
            .expect("no party panics here");
        !timeout.timed_out() || *arrived >= self.parties
    }
}

/// The threads that ran the items of one call.
fn threads_of(call: impl FnOnce(&(dyn Fn() + Sync))) -> HashSet<ThreadId> {
    let seen = Mutex::new(HashSet::new());
    call(&|| {
        seen.lock()
            .expect("no item panics while recording")
            .insert(thread::current().id());
    });
    seen.into_inner().expect("no item panics while recording")
}

/// One call over `budget` items in which every item waits for all the
/// others, so it passes only if `budget` threads serve it at once.
fn all_threads_meet(budget: usize) -> HashSet<ThreadId> {
    let items: Vec<usize> = (0..budget).collect();
    let meeting = Rendezvous::new(budget);
    threads_of(|seen| {
        let met: Vec<bool> = items
            .par_iter()
            .map(|_| {
                seen();
                meeting.meet()
            })
            .collect();
        assert!(met.iter().all(|&m| m), "{budget} threads never met");
    })
}

/// How long a nested call's first item waits for another of its items
/// to start; run inline, none ever does.
const LONE_WAIT: Duration = Duration::from_millis(200);

/// Two outer items each make a nested call over `items`, at a budget of
/// 4, so two workers sit idle and could take the nested chunks. Each
/// nested call's first item waits for another of its items to start.
/// `true` if every nested item ran on the thread of its outer item.
fn nested_calls_stay_on_their_thread(items: &[usize]) -> bool {
    let inline: Vec<bool> = [0, 1]
        .par_iter()
        .map(|_| {
            let me = thread::current().id();
            let started = Mutex::new(false);
            let company = Condvar::new();
            items
                .par_iter()
                .enumerate()
                .map(|(i, _)| {
                    let mut others = started.lock().expect("no item panics here");
                    if i == 0 {
                        others = company
                            .wait_timeout_while(others, LONE_WAIT, |o| !*o)
                            .expect("no item panics here")
                            .0;
                    } else {
                        *others = true;
                        company.notify_all();
                    }
                    drop(others);
                    thread::current().id() == me
                })
                .collect::<Vec<bool>>()
                .into_iter()
                .all(|same| same)
        })
        .collect();
    inline.iter().all(|&same| same)
}

/// The text of a panic payload raised with `panic!`.
fn message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

#[test]
fn empty_slice_runs_nothing() {
    let empty: Vec<u32> = Vec::new();
    let out: Vec<u32> = empty.par_iter().map(|&x| x + 1).collect();
    assert!(out.is_empty());
    let chunks: Vec<usize> = empty.par_chunks(4).map(|c| c.len()).collect();
    assert!(chunks.is_empty());
}

#[test]
fn nested_calls_keep_index_order() {
    let outer: Vec<usize> = (0..9).collect();
    let inner: Vec<usize> = (0..101).collect();
    let got: Vec<Vec<(usize, usize)>> = outer
        .par_iter()
        .map(|&o| {
            inner
                .par_iter()
                .enumerate()
                .map(|(i, &x)| (o, i + x))
                .collect()
        })
        .collect();
    let want: Vec<Vec<(usize, usize)>> = outer
        .iter()
        .map(|&o| inner.iter().map(|&x| (o, 2 * x)).collect())
        .collect();
    assert_eq!(got, want);
}

#[test]
fn concurrent_callers_each_get_ordered_results() {
    let items: Vec<u64> = (0..1_000).collect();
    thread::scope(|scope| {
        for caller in 0..8u64 {
            let items = &items;
            scope.spawn(move || {
                for round in 0..25u64 {
                    let got: Vec<u64> = items
                        .par_iter()
                        .enumerate()
                        .map(|(i, &x)| i as u64 * 1_000_000 + x * caller + round)
                        .collect();
                    let want: Vec<u64> = (0..1_000)
                        .map(|x| x * 1_000_000 + x * caller + round)
                        .collect();
                    assert_eq!(got, want, "caller {caller}, round {round}");
                }
            });
        }
    });
}

/// Every budget-dependent check, in one test because `RAYON_NUM_THREADS`
/// is process-wide: the budget toggles 1 → 4 → 2, the pool serves each
/// call with at most that many threads, nested calls run inline, and a
/// panic reaches the caller with its payload while the worker survives.
#[test]
fn budget_toggles_panics_and_thread_counts() {
    let items: Vec<usize> = (0..64).collect();
    for budget in [1, 4, 2] {
        std::env::set_var("RAYON_NUM_THREADS", budget.to_string());
        assert_eq!(rayon::current_num_threads(), budget);

        let mut used = HashSet::new();
        for _ in 0..100 {
            used.extend(threads_of(|seen| {
                let got: Vec<usize> = items
                    .par_iter()
                    .map(|&x| {
                        seen();
                        x * 3
                    })
                    .collect();
                assert_eq!(got, (0..64).map(|x| x * 3).collect::<Vec<_>>());
            }));
        }
        assert!(
            used.len() <= budget,
            "{} threads served calls at budget {budget}",
            used.len()
        );
        if budget > 1 {
            assert_eq!(all_threads_meet(budget).len(), budget);
        }
        if budget == 4 {
            assert!(nested_calls_stay_on_their_thread(&items));
        }
    }

    // Budget 2 from here on. The original payload reaches the caller,
    // raised after every chunk has finished.
    let finished = Mutex::new(0usize);
    let caught = panic::catch_unwind(AssertUnwindSafe(|| {
        items
            .par_iter()
            .map(|&x| {
                *finished.lock().unwrap() += 1;
                if x == 7 {
                    panic!("boom at {x}");
                }
                x
            })
            .collect::<Vec<usize>>()
    }));
    let payload = caught.expect_err("the panic reaches the caller");
    assert_eq!(message(payload.as_ref()), "boom at 7");
    assert_eq!(*finished.lock().unwrap(), 8 + 32, "chunk 1 ran in full");

    // A panic on the worker itself leaves that worker in the pool.
    let caller = thread::current().id();
    let meeting = Rendezvous::new(2);
    let caught = panic::catch_unwind(AssertUnwindSafe(|| {
        [0, 1]
            .par_iter()
            .map(|_| {
                assert!(meeting.meet(), "the worker never came");
                if thread::current().id() != caller {
                    panic!("boom on the worker");
                }
            })
            .collect::<Vec<()>>()
    }));
    let payload = caught.expect_err("the worker's panic reaches the caller");
    assert_eq!(message(payload.as_ref()), "boom on the worker");
    assert_eq!(all_threads_meet(2).len(), 2, "the worker survived");

    std::env::remove_var("RAYON_NUM_THREADS");
}
