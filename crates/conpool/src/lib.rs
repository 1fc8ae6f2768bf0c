//! A small scoped worker pool with a deterministic merge.
//!
//! Several of the ecosystem's hot loops are embarrassingly parallel
//! fan-outs over independent items — component analysis in `confdep`,
//! fault schedules in `faultsim`, and the campaigns of [`map_unique`].
//! This crate sits below all of them (it depends only on `crossbeam`),
//! so every layer shares one pool.
//! [`parallel_map`] packages the shared pattern once:
//! items are pulled from a work queue by `threads` crossbeam scoped
//! workers, and the results are re-assembled **in input order**, so a
//! parallel run is byte-identical to a sequential one whenever the
//! per-item function is pure.
//!
//! [`map_unique`] is the campaign driver on top: crash exploration in
//! `crashsim`, the ConBugCk campaign and the fuzz rounds in `contools`
//! fingerprint each item, run one representative per fingerprint on
//! the pool, and map every item back to its representative's result.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::Mutex;

/// Resolves a requested worker count: `0` means one worker per
/// available core, anything else is taken as-is.
pub fn effective_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        requested
    }
}

/// Maps `f` over `items` on scoped workers, returning results in input
/// order. `threads` is resolved by [`effective_threads`] (`0` = one per
/// core); one worker (or a single item) runs inline with no thread
/// overhead. `f` receives each item's input index.
///
/// # Panics
///
/// Propagates a panic from `f` after all workers have stopped.
pub fn parallel_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let threads = effective_threads(threads);
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items.into_iter().enumerate().map(|(i, item)| f(i, item)).collect();
    }
    let queue: Mutex<VecDeque<(usize, T)>> = Mutex::new(items.into_iter().enumerate().collect());
    let workers = threads.min(n);
    // pull a few items per lock so short per-item work (sub-millisecond
    // campaign probes) doesn't serialise on the queue mutex; small
    // chunks keep the tail balanced across workers
    let chunk = (n / (workers * 8)).clamp(1, 16);
    let mut tagged: Vec<(usize, R)> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                let queue = &queue;
                let f = &f;
                scope.spawn(move |_| {
                    let mut out = Vec::new();
                    let mut jobs = Vec::with_capacity(chunk);
                    loop {
                        {
                            let mut q = queue.lock().expect("work queue poisoned");
                            for _ in 0..chunk {
                                match q.pop_front() {
                                    Some(job) => jobs.push(job),
                                    None => break,
                                }
                            }
                        }
                        if jobs.is_empty() {
                            break;
                        }
                        out.extend(jobs.drain(..).map(|(i, item)| (i, f(i, item))));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker thread panicked"))
            .collect()
    })
    .expect("crossbeam scope");
    tagged.sort_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

/// Runs `f` once per distinct key of `items` on [`parallel_map`].
///
/// Items whose `key` is equal share one run: the first occurrence is
/// the representative, later ones are dropped before the fan-out. A
/// `None` key never merges with another item. Returns the distinct
/// results in first-occurrence order, plus each input item's slot into
/// that list, so `results[slots[i]]` is item `i`'s result.
///
/// # Panics
///
/// Propagates a panic from `f` after all workers have stopped.
pub fn map_unique<T, K, R, KF, F>(
    items: Vec<T>,
    threads: usize,
    key: KF,
    f: F,
) -> (Vec<R>, Vec<usize>)
where
    T: Send,
    K: Hash + Eq,
    R: Send,
    KF: Fn(&T) -> Option<K>,
    F: Fn(T) -> R + Sync,
{
    let mut seen: HashMap<K, usize> = HashMap::new();
    let mut unique: Vec<T> = Vec::new();
    let mut slots: Vec<usize> = Vec::with_capacity(items.len());
    for item in items {
        let slot = match key(&item) {
            Some(k) => *seen.entry(k).or_insert(unique.len()),
            None => unique.len(),
        };
        if slot == unique.len() {
            unique.push(item);
        }
        slots.push(slot);
    }
    (parallel_map(unique, threads, |_, item| f(item)), slots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = parallel_map(items.clone(), 8, |_, v| v * 3);
        assert_eq!(out, items.iter().map(|v| v * 3).collect::<Vec<_>>());
    }

    #[test]
    fn matches_sequential_run() {
        let items: Vec<u32> = (0..57).collect();
        let seq = parallel_map(items.clone(), 1, |i, v| (i as u32) ^ v.wrapping_mul(7));
        let par = parallel_map(items, 4, |i, v| (i as u32) ^ v.wrapping_mul(7));
        assert_eq!(seq, par);
    }

    #[test]
    fn indices_match_items() {
        let items = vec![10usize, 20, 30];
        let out = parallel_map(items, 2, |i, v| (i, v));
        assert_eq!(out, vec![(0, 10), (1, 20), (2, 30)]);
    }

    #[test]
    fn runs_every_item_exactly_once() {
        let counter = AtomicUsize::new(0);
        let out = parallel_map((0..200).collect::<Vec<i32>>(), 6, |_, v| {
            counter.fetch_add(1, Ordering::Relaxed);
            v
        });
        assert_eq!(out.len(), 200);
        assert_eq!(counter.load(Ordering::Relaxed), 200);
    }

    #[test]
    fn zero_threads_resolves_to_cores() {
        assert_eq!(effective_threads(3), 3);
        assert!(effective_threads(0) >= 1);
        // auto mode still computes the same results
        let items: Vec<u32> = (0..23).collect();
        assert_eq!(
            parallel_map(items.clone(), 0, |_, v| v + 1),
            parallel_map(items, 1, |_, v| v + 1)
        );
    }

    #[test]
    fn empty_and_single_item_inputs() {
        let none: Vec<u8> = Vec::new();
        assert!(parallel_map(none, 4, |_, v: u8| v).is_empty());
        assert_eq!(parallel_map(vec![9u8], 4, |_, v| v + 1), vec![10]);
    }

    #[test]
    #[should_panic(expected = "worker thread panicked")]
    fn worker_panic_propagates() {
        let _ = parallel_map((0..8).collect::<Vec<i32>>(), 2, |_, v| {
            assert!(v != 5, "boom");
            v
        });
    }

    #[test]
    fn map_unique_runs_first_occurrence_once_per_key() {
        let calls = AtomicUsize::new(0);
        let items = vec![(1, 'a'), (2, 'b'), (1, 'c'), (3, 'd'), (2, 'e')];
        let (results, slots) = map_unique(
            items,
            2,
            |&(k, _)| Some(k),
            |(k, c)| {
                calls.fetch_add(1, Ordering::Relaxed);
                (k, c)
            },
        );
        // the first occurrence of each key is its representative
        assert_eq!(results, vec![(1, 'a'), (2, 'b'), (3, 'd')]);
        assert_eq!(slots, vec![0, 1, 0, 2, 1]);
        assert_eq!(calls.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn map_unique_never_merges_none_keys() {
        let items = vec![7u32, 7, 8, 7];
        let (results, slots) = map_unique(items, 2, |&v| (v != 7).then_some(v), |v| v * 10);
        assert_eq!(results, vec![70, 70, 80, 70]);
        assert_eq!(slots, vec![0, 1, 2, 3]);
    }

    #[test]
    fn map_unique_slots_map_back_to_results() {
        let items: Vec<u32> = (0..200).map(|i| (i * 7919) % 13).collect();
        let calls = AtomicUsize::new(0);
        let (results, slots) = map_unique(
            items.clone(),
            4,
            |&v| Some(v),
            |v| {
                calls.fetch_add(1, Ordering::Relaxed);
                v * v
            },
        );
        assert_eq!(calls.load(Ordering::Relaxed), 13, "one run per distinct key");
        for (item, slot) in items.iter().zip(&slots) {
            assert_eq!(results[*slot], item * item);
        }
    }

    #[test]
    fn map_unique_is_thread_count_independent() {
        let items: Vec<u64> = (0..97).map(|i| (i * 31) % 17).collect();
        let run = |threads| map_unique(items.clone(), threads, |&v| Some(v % 11), |v| v + 1);
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn map_unique_empty_input() {
        let (results, slots) = map_unique(Vec::<u8>::new(), 4, |&v| Some(v), |v| v);
        assert!(results.is_empty() && slots.is_empty());
    }
}
