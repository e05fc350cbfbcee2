//! Epoch-swapped snapshot publication.
//!
//! The serving layer (`hcd-serve`) keeps an immutable snapshot of the
//! whole index behind an [`EpochCell`]: readers load an `Arc` to the
//! current snapshot and keep using it for as long as they like, while a
//! single writer builds the next snapshot *outside* any lock and then
//! publishes it with one pointer swap. Every published snapshot is
//! numbered by a monotonically increasing **generation** (epoch), so a
//! response can carry the exact index state it was answered from and a
//! validator can check that no reader ever observed a torn or retracted
//! state.
//!
//! Readers never wait on index rebuilds: the read-side critical section
//! is a single `Arc` clone (no allocation, no I/O), and the write-side
//! critical section is a single pointer store — the expensive work
//! (batch application, PHCD reconstruction) happens strictly before
//! [`EpochCell::publish`] is called.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

/// A swap cell publishing immutable snapshots to concurrent readers.
///
/// [`EpochCell::load`] hands out an `Arc` clone of the current value;
/// [`EpochCell::publish`] atomically replaces it and advances the
/// epoch. Old snapshots stay alive for exactly as long as some reader
/// still holds their `Arc` — there is no reclamation race and no torn
/// read by construction, because a snapshot is never mutated after
/// publication.
///
/// Generation 0 is "the initial state"; every publication advances the
/// generation by one. It is advanced with release semantics and read
/// with acquire semantics, so a reader that observes generation `g`
/// also observes every write that led to it.
///
/// The value type decides what a "snapshot" is; the cell only promises
/// the swap discipline. Readers never block on a writer's *rebuild*
/// (which happens before `publish`); the lock below is held only for
/// the pointer clone/store itself.
pub struct EpochCell<T> {
    slot: RwLock<Arc<T>>,
    generation: AtomicU64,
}

impl<T> std::fmt::Debug for EpochCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "EpochCell(generation={})", self.generation())
    }
}

impl<T> EpochCell<T> {
    /// A cell holding `initial` at generation 0.
    pub fn new(initial: T) -> Self {
        Self::new_at(initial, 0)
    }

    /// A cell holding `initial` at an arbitrary starting generation, so
    /// recovered state keeps its pre-crash epoch numbering and readers
    /// never observe the generation go backwards across a restart.
    pub fn new_at(initial: T, generation: u64) -> Self {
        EpochCell {
            slot: RwLock::new(Arc::new(initial)),
            generation: AtomicU64::new(generation),
        }
    }

    /// The current generation (number of publications so far).
    pub fn generation(&self) -> u64 {
        // Acquire pairs with the Release half of `publish`: a thread
        // that reads `g` sees the slot store of publication `g`, so its
        // next `EpochCell::load` is at least that new.
        self.generation.load(Ordering::Acquire)
    }

    /// Loads the currently published snapshot. The returned `Arc` stays
    /// valid (and immutable) regardless of later publications.
    pub fn load(&self) -> Arc<T> {
        self.slot.read().clone()
    }

    /// Publishes `next` as the new current snapshot and returns the new
    /// generation. The swap itself is a single pointer store; callers
    /// finish all expensive construction before calling this.
    pub fn publish(&self, next: Arc<T>) -> u64 {
        let mut slot = self.slot.write();
        *slot = next;
        // Advance inside the write lock so generation order equals
        // publication order even with (hypothetical) multiple writers.
        // Release publishes the slot store made before it (see
        // `generation`); the Acquire half orders it after any earlier
        // advance, so generations are handed out in publication order.
        self.generation.fetch_add(1, Ordering::AcqRel) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn counter_is_monotone() {
        let cell = EpochCell::new(());
        assert_eq!(cell.generation(), 0);
        assert_eq!(cell.publish(Arc::new(())), 1);
        assert_eq!(cell.publish(Arc::new(())), 2);
        assert_eq!(cell.generation(), 2);
    }

    #[test]
    fn load_returns_latest_publication() {
        let cell = EpochCell::new(10u32);
        assert_eq!(*cell.load(), 10);
        assert_eq!(cell.generation(), 0);
        assert_eq!(cell.publish(Arc::new(20)), 1);
        assert_eq!(*cell.load(), 20);
        assert_eq!(cell.generation(), 1);
    }

    #[test]
    fn cell_can_resume_at_a_recovered_generation() {
        let cell = EpochCell::new_at(7u32, 41);
        assert_eq!(cell.generation(), 41);
        assert_eq!(*cell.load(), 7);
        assert_eq!(cell.publish(Arc::new(8)), 42);
        assert_eq!(cell.generation(), 42);
    }

    #[test]
    fn old_snapshots_survive_publication() {
        let cell = EpochCell::new(String::from("old"));
        let held = cell.load();
        cell.publish(Arc::new(String::from("new")));
        assert_eq!(*held, "old");
        assert_eq!(*cell.load(), "new");
    }

    #[test]
    fn concurrent_readers_see_monotone_generations() {
        // Snapshots carry their own generation; readers must never see
        // the value go backwards, and every value they see must be one
        // the writer actually published.
        let cell = Arc::new(EpochCell::new(0u64));
        let stop = Arc::new(AtomicBool::new(false));
        let progress: Arc<Vec<AtomicU64>> = Arc::new((0..4).map(|_| AtomicU64::new(0)).collect());
        let readers: Vec<_> = (0..4)
            .map(|i| {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                let progress = Arc::clone(&progress);
                std::thread::spawn(move || {
                    let mut last = 0u64;
                    let mut loads = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let v = *cell.load();
                        assert!(v >= last, "generation went backwards: {v} < {last}");
                        last = v;
                        loads += 1;
                        progress[i].store(loads, Ordering::Relaxed);
                    }
                    loads
                })
            })
            .collect();
        for g in 1..=100u64 {
            let gen = cell.publish(Arc::new(g));
            assert_eq!(gen, g);
        }
        // On a single core the writer can finish all 100 publishes before
        // a reader is ever scheduled; wait for each to make progress so
        // the loads>0 assertion is about correctness, not timing.
        for p in progress.iter() {
            while p.load(Ordering::Relaxed) == 0 {
                std::thread::yield_now();
            }
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            assert!(r.join().unwrap() > 0, "reader made no progress");
        }
        assert_eq!(*cell.load(), 100);
        assert_eq!(cell.generation(), 100);
    }
}
