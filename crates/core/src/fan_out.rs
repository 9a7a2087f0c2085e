//! The crate's one fan-out: independent tasks spread over scoped
//! threads, one lane of them the calling thread.

use std::panic::{self, AssertUnwindSafe};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::thread;

/// The machine's available parallelism, read once: on Linux every
/// `available_parallelism` call reads the cgroup quota files again.
pub(crate) fn parallelism() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Runs `task` over every item on at most `min(threads, items.len())`
/// lanes and returns the results in input order. The calling thread is
/// one lane and runs the first item; every lane then takes the next
/// item left. With one lane nothing is spawned, and when the OS refuses
/// a helper thread the lanes already running take its items. A
/// panicking task is re-raised on the caller, with its own payload,
/// once every lane has ended.
pub(crate) fn fan_out<I, T, F>(items: Vec<I>, threads: usize, task: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    fan_out_from(items, threads, thread::Builder::new, task)
}

/// [`fan_out`], each helper lane spawned from a `helper()` builder.
fn fan_out_from<I, T, F>(
    items: Vec<I>,
    threads: usize,
    helper: fn() -> thread::Builder,
    task: F,
) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    let lanes = threads.min(items.len());
    if lanes <= 1 {
        return items.into_iter().map(task).collect();
    }
    let mut items = items.into_iter().enumerate();
    let first = items.next();
    let rest = Mutex::new(items);
    let take = || rest.lock().unwrap_or_else(PoisonError::into_inner).next();
    let lane = |mut next: Option<(usize, I)>| {
        let mut done = Vec::new();
        while let Some((i, item)) = next {
            done.push((i, task(item)));
            next = take();
        }
        done
    };
    let ended: Vec<thread::Result<Vec<(usize, T)>>> = thread::scope(|scope| {
        let helpers: Vec<_> = (1..lanes)
            .map_while(|_| helper().spawn_scoped(scope, || lane(take())).ok())
            .collect();
        let mine = panic::catch_unwind(AssertUnwindSafe(|| lane(first)));
        std::iter::once(mine)
            .chain(helpers.into_iter().map(|h| h.join()))
            .collect()
    });
    let mut done = Vec::new();
    for results in ended {
        done.extend(results.unwrap_or_else(|payload| panic::resume_unwind(payload)));
    }
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn fan_out_keeps_input_order_across_lanes() {
        // Item 1 holds the helper lane until the caller has run item 2,
        // so the lanes finish their items out of input order.
        let (first, second) = (Barrier::new(2), Barrier::new(2));
        let ran = fan_out(vec![0, 1, 2], 2, |i| {
            if i < 2 {
                first.wait();
            }
            if i > 0 {
                second.wait();
            }
            (i, thread::current().id())
        });
        let caller = thread::current().id();
        assert_eq!(ran.iter().map(|&(i, _)| i).collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!((ran[0].1, ran[2].1), (caller, caller));
        assert_ne!(ran[1].1, caller);
    }

    #[test]
    fn fan_out_with_one_lane_stays_on_the_caller() {
        let caller = thread::current().id();
        for (threads, items) in [(1, 5), (0, 5), (4, 1), (4, 0)] {
            let ran_on = fan_out(vec![(); items], threads, |()| thread::current().id());
            assert_eq!(
                ran_on,
                vec![caller; items],
                "{threads} threads, {items} items"
            );
        }
    }

    #[test]
    fn fan_out_runs_on_the_caller_when_no_helper_starts() {
        // A stack larger than any address space: the OS refuses the
        // mapping, so every spawn fails and no thread or memory is taken.
        let refused = || thread::Builder::new().stack_size(1 << 60);
        assert!(refused().spawn(|| ()).is_err(), "the OS refuses the stack");
        let caller = thread::current().id();
        let ran = fan_out_from((0..6).collect(), 3, refused, |i: usize| {
            (i, thread::current().id())
        });
        assert_eq!(ran, (0..6).map(|i| (i, caller)).collect::<Vec<_>>());
    }

    #[test]
    fn fan_out_re_raises_a_task_panic_with_its_payload() {
        // Item 0 runs on the caller; the others on either lane.
        for failing in [0, 5] {
            let caught = panic::catch_unwind(|| {
                fan_out((0..8).collect(), 3, |i: usize| {
                    assert!(i != failing, "task {i} failed");
                    i
                })
            });
            let payload = caught.expect_err("the task panic reaches the caller");
            let message = payload
                .downcast_ref::<String>()
                .expect("assert! panics with a formatted message");
            assert_eq!(*message, format!("task {failing} failed"));
        }
    }
}
