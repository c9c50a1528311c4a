//! The scoped worker pool behind batch differencing and store loading.
//!
//! Plain `std` scoped threads pull job indices from one atomic counter, so
//! a slow job never holds up the queue behind it, and the results come back
//! in job order whatever order the jobs finished in.

use std::sync::atomic::{AtomicUsize, Ordering};

/// The CPUs available to this process: the default worker count.
pub(crate) fn cpus() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Runs `work` over every job on up to `threads` scoped workers and returns
/// the results in job order.  With one worker (or one job) everything runs
/// on the calling thread.  A panicking job propagates its panic to the
/// caller once every worker has stopped.
#[expect(
    clippy::expect_used,
    reason = "the atomic job counter hands each index to exactly one worker and every worker is joined, so a None slot is a scheduler bug"
)]
pub(crate) fn map_ordered<J: Sync, T: Send>(
    jobs: &[J],
    threads: usize,
    work: impl Fn(&J) -> T + Sync,
) -> Vec<T> {
    let workers = threads.min(jobs.len()).max(1);
    if workers == 1 {
        return jobs.iter().map(work).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..jobs.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= jobs.len() {
                            break;
                        }
                        done.push((k, work(&jobs[k])));
                    }
                    done
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(done) => {
                    for (k, result) in done {
                        slots[k] = Some(result);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    slots.into_iter().map(|slot| slot.expect("every job index was claimed exactly once")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_job_order_at_any_worker_count() {
        let jobs: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = jobs.iter().map(|j| j * j).collect();
        for threads in [1, 2, 3, 8] {
            assert_eq!(map_ordered(&jobs, threads, |j| j * j), serial, "{threads} threads");
        }
        assert!(map_ordered(&[] as &[u64], 4, |j| *j).is_empty());
    }

    #[test]
    fn a_panicking_job_propagates_its_panic() {
        let jobs: Vec<u32> = (0..64).collect();
        let caught = std::panic::catch_unwind(|| {
            map_ordered(&jobs, 2, |&j| {
                if j == 37 {
                    panic!("job 37 failed");
                }
                j
            })
        })
        .unwrap_err();
        assert_eq!(caught.downcast_ref::<&str>(), Some(&"job 37 failed"));
    }
}
