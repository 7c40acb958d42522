//! Offline shim for the `rayon` crate: data parallelism on
//! `std::thread::scope`.
//!
//! Each combinator (`map`, `filter`, `for_each`) is evaluated eagerly
//! across OS threads. Workers claim items one at a time from a shared
//! queue, so a slow item holds up only its own worker while the others
//! drain the rest, and results come back in input order. That keeps the
//! implementation tiny while still using every core for the
//! coarse-grained, uneven work (whole simulation runs) this workspace
//! parallelizes. See `shims/README.md`.

use std::sync::Mutex;

/// Number of worker threads to fan out over.
fn num_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Applies `f` to every item in parallel, preserving order.
///
/// One worker per core (at most one per item) claims the next unclaimed
/// item, runs it, and claims again until none is left. A panic in `f`
/// surfaces as `rayon shim worker panicked` once every worker has stopped.
fn par_apply<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let queue = Mutex::new(items.into_iter().enumerate());
    let claim = || {
        queue
            .lock()
            .expect("no worker panics while claiming")
            .next()
    };
    let (f, claim) = (&f, &claim);
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(n).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..num_threads().min(n))
            .map(|_| {
                s.spawn(move || {
                    let mut done = Vec::new();
                    while let Some((i, item)) = claim() {
                        done.push((i, f(item)));
                    }
                    done
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("rayon shim worker panicked") {
                slots[i] = Some(r);
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every item ran"))
        .collect()
}

/// An eagerly materialized "parallel iterator": holds the items and runs
/// each combinator across threads.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Parallel map.
    pub fn map<R: Send, F: Fn(T) -> R + Sync>(self, f: F) -> ParIter<R> {
        ParIter {
            items: par_apply(self.items, f),
        }
    }

    /// Parallel filter (the predicate runs in parallel).
    pub fn filter<F: Fn(&T) -> bool + Sync>(self, f: F) -> ParIter<T>
    where
        T: Sync,
    {
        let keep = par_apply(self.items.iter().collect::<Vec<&T>>(), &f);
        ParIter {
            items: self
                .items
                .into_iter()
                .zip(keep)
                .filter_map(|(t, k)| k.then_some(t))
                .collect(),
        }
    }

    /// Parallel side effects.
    pub fn for_each<F: Fn(T) + Sync>(self, f: F) {
        par_apply(self.items, f);
    }

    /// Number of items.
    pub fn count(self) -> usize {
        self.items.len()
    }

    /// Collects into any `FromIterator` container, preserving order.
    #[allow(clippy::should_implement_trait)]
    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }

    /// Sums the items.
    pub fn sum<S: std::iter::Sum<T>>(self) -> S {
        self.items.into_iter().sum()
    }

    /// Reduces with `identity` and `op` (sequential tail after parallel map
    /// stages; adequate for this workspace's workloads).
    pub fn reduce<ID: Fn() -> T, OP: Fn(T, T) -> T>(self, identity: ID, op: OP) -> T {
        self.items.into_iter().fold(identity(), op)
    }
}

/// Types convertible into a [`ParIter`] by value.
pub trait IntoParallelIterator {
    /// Item type.
    type Item: Send;
    /// Conversion.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl<'a, T: Sync> IntoParallelIterator for &'a [T] {
    type Item = &'a T;
    fn into_par_iter(self) -> ParIter<&'a T> {
        ParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Sync> IntoParallelIterator for &'a Vec<T> {
    type Item = &'a T;
    fn into_par_iter(self) -> ParIter<&'a T> {
        self.as_slice().into_par_iter()
    }
}

impl<'a, T: Sync, const N: usize> IntoParallelIterator for &'a [T; N] {
    type Item = &'a T;
    fn into_par_iter(self) -> ParIter<&'a T> {
        self.as_slice().into_par_iter()
    }
}

macro_rules! range_into_par {
    ($($t:ty),*) => {$(
        impl IntoParallelIterator for std::ops::Range<$t> {
            type Item = $t;
            fn into_par_iter(self) -> ParIter<$t> {
                ParIter { items: self.collect() }
            }
        }
    )*};
}

range_into_par!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Types whose references convert into a [`ParIter`] (`.par_iter()`).
pub trait IntoParallelRefIterator<'a> {
    /// Item type (a reference).
    type Item: Send;
    /// Conversion.
    fn par_iter(&'a self) -> ParIter<Self::Item>;
}

impl<'a, C: ?Sized + 'a> IntoParallelRefIterator<'a> for C
where
    &'a C: IntoParallelIterator,
{
    type Item = <&'a C as IntoParallelIterator>::Item;
    fn par_iter(&'a self) -> ParIter<Self::Item> {
        self.into_par_iter()
    }
}

/// Marker for API compatibility with `rayon::prelude::ParallelIterator`.
pub trait ParallelIterator {}
impl<T> ParallelIterator for ParIter<T> {}

/// The customary glob import.
pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, ParallelIterator};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_preserves_order() {
        let out: Vec<u64> = (0u64..100).into_par_iter().map(|x| x * 2).collect();
        assert_eq!(out, (0u64..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn filter_count() {
        let n = (0u64..1000).into_par_iter().filter(|&x| x % 3 == 0).count();
        assert_eq!(n, 334);
    }

    #[test]
    fn ref_par_iter_on_arrays_and_vecs() {
        let arr = [1.0f64, 2.0, 3.0];
        let doubled: Vec<f64> = arr.par_iter().map(|&x| x * 2.0).collect();
        assert_eq!(doubled, vec![2.0, 4.0, 6.0]);
        let v = vec![5usize, 6];
        let s: usize = v.par_iter().map(|&x| x).sum();
        assert_eq!(s, 11);
    }

    #[test]
    fn empty_input() {
        let out: Vec<u32> = Vec::<u32>::new().into_par_iter().map(|x| x).collect();
        assert!(out.is_empty());
    }

    #[test]
    fn uneven_items_keep_order_and_run_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let runs: Vec<AtomicUsize> = (0..97).map(|_| AtomicUsize::new(0)).collect();
        let out: Vec<usize> = (0usize..97)
            .into_par_iter()
            .map(|i| {
                runs[i].fetch_add(1, Ordering::SeqCst);
                // Uneven cost: every seventh item is far slower.
                if i % 7 == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                }
                i * 3
            })
            .collect();
        assert_eq!(out, (0..97).map(|i| i * 3).collect::<Vec<_>>());
        for (i, r) in runs.iter().enumerate() {
            assert_eq!(
                r.load(Ordering::SeqCst),
                1,
                "item {i} ran more or less than once"
            );
        }
    }

    #[test]
    fn worker_panic_surfaces() {
        let err = std::panic::catch_unwind(|| {
            (0u32..8).into_par_iter().for_each(|i| {
                if i == 5 {
                    panic!("item five fails");
                }
            })
        })
        .expect_err("a panicking item fails the whole call");
        let msg = err
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("rayon shim worker panicked"), "got {msg:?}");
    }

    /// Item 0 blocks until every other item has run. With items claimed
    /// one at a time another worker takes all of them; with one
    /// contiguous chunk per worker, item 1 would wait behind item 0 and
    /// the wait would time out.
    #[test]
    fn idle_workers_claim_the_rest() {
        use std::sync::{Condvar, Mutex};
        use std::time::Duration;
        if std::thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
            return;
        }
        let n = 16usize;
        let others_done = Mutex::new(0usize);
        let cv = Condvar::new();
        let waited: Vec<bool> = (0..n)
            .into_par_iter()
            .map(|i| {
                let mut done = others_done.lock().unwrap();
                if i == 0 {
                    let (done, timeout) = cv
                        .wait_timeout_while(done, Duration::from_secs(10), |d| *d < n - 1)
                        .unwrap();
                    drop(done);
                    !timeout.timed_out()
                } else {
                    *done += 1;
                    cv.notify_all();
                    true
                }
            })
            .collect();
        assert!(waited[0], "items behind item 0 never ran on another worker");
    }
}
