//! A lock-free bounded MPSC ring of trace records.
//!
//! Producers (simulator threads emitting lifecycle events) enqueue with
//! [`Ring::push`], which either claims a slot with one CAS or returns the
//! value back immediately when the ring is full — it never blocks and
//! never allocates. A single consumer (the [`crate::pipeline`] writer
//! thread) drains with [`Ring::pop`]. The implementation is the classic
//! bounded queue of Dmitry Vyukov: each slot carries a sequence number
//! that encodes whether it is empty (seq == pos), full (seq == pos + 1),
//! or lapped, so producers and the consumer synchronize purely through
//! per-slot acquire/release pairs plus one shared position counter per
//! side. The queue is in fact MPMC-safe; this crate only ever attaches
//! one consumer.
//!
//! Capacity is rounded up to a power of two so slot indexing is a mask.
//! Overflow policy is the *caller's* concern: [`Ring::push`] hands the
//! rejected value back so the pipeline can count it as dropped rather
//! than stall the producer (the sim clock must never wait on I/O).

// The slot array needs interior mutability that the sequence-number
// protocol, not a lock, guards — the same scoped-unsafe arrangement as
// `mem` (see lib.rs: the crate denies, not forbids, unsafe).
#![allow(unsafe_code)]

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One slot: the protocol sequence number plus the (possibly absent)
/// value.
struct Slot<T> {
    seq: AtomicUsize,
    value: UnsafeCell<Option<T>>,
}

/// A lock-free bounded multi-producer queue of `T` records. The element
/// type is deliberately generic: the trace pipeline moves compact event
/// structs through the ring (a memcpy per push) and defers JSON encoding
/// to the consumer side, so producers never pay for string formatting.
pub struct Ring<T> {
    slots: Box<[Slot<T>]>,
    mask: usize,
    /// Next position a producer will claim.
    enqueue_pos: AtomicUsize,
    /// Next position the consumer will drain.
    dequeue_pos: AtomicUsize,
}

// SAFETY: a slot's `value` is only touched by the thread that owns the
// slot's current protocol state — a producer after winning the CAS on
// `enqueue_pos` (slot observed empty via its seq, acquire), or the
// consumer after observing the slot full (seq == pos + 1, acquire). The
// release store of the new seq publishes the write before any other
// thread can observe the state transition, so no two threads ever access
// one slot's value concurrently.
unsafe impl<T: Send> Send for Ring<T> {}
unsafe impl<T: Send> Sync for Ring<T> {}

impl<T> std::fmt::Debug for Ring<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ring")
            .field("capacity", &self.capacity())
            .field("len", &self.len())
            .finish()
    }
}

impl<T> Ring<T> {
    /// A ring holding up to `capacity` records (rounded up to a power of
    /// two, minimum 2). Every slot is allocated up front, so callers
    /// taking the capacity from user input bound it first.
    ///
    /// # Panics
    ///
    /// When rounding `capacity` up to a power of two overflows `usize`.
    pub fn with_capacity(capacity: usize) -> Ring<T> {
        let cap = capacity
            .max(2)
            .checked_next_power_of_two()
            .expect("ring capacity overflows usize when rounded to a power of two");
        Ring {
            slots: (0..cap)
                .map(|i| Slot {
                    seq: AtomicUsize::new(i),
                    value: UnsafeCell::new(None),
                })
                .collect(),
            mask: cap - 1,
            enqueue_pos: AtomicUsize::new(0),
            dequeue_pos: AtomicUsize::new(0),
        }
    }

    /// The slot count.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Approximate number of queued records (exact when quiescent).
    pub fn len(&self) -> usize {
        let tail = self.dequeue_pos.load(Ordering::Relaxed);
        let head = self.enqueue_pos.load(Ordering::Relaxed);
        head.saturating_sub(tail)
    }

    /// Whether the ring currently holds no records (approximate under
    /// concurrent producers, exact when they are quiescent).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues `value`, or returns it back when the ring is full. Never
    /// blocks: the caller decides whether a rejected line is dropped
    /// (trace events) or retried (control records).
    pub fn push(&self, value: T) -> Result<(), T> {
        let mut pos = self.enqueue_pos.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == pos {
                // Slot empty at our position: try to claim it.
                match self.enqueue_pos.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: winning the CAS makes this thread the
                        // slot's unique owner until the release store
                        // below publishes it to the consumer.
                        unsafe { *slot.value.get() = Some(value) };
                        slot.seq.store(pos.wrapping_add(1), Ordering::Release);
                        return Ok(());
                    }
                    Err(actual) => pos = actual,
                }
            } else if (seq.wrapping_sub(pos) as isize) < 0 {
                // Slot still holds a value from one lap ago: full.
                return Err(value);
            } else {
                // Another producer claimed this position; advance.
                pos = self.enqueue_pos.load(Ordering::Relaxed);
            }
        }
    }

    /// Dequeues the oldest line, if any. Single consumer only (the
    /// pipeline writer thread); the protocol itself is MPMC-safe.
    pub fn pop(&self) -> Option<T> {
        let mut pos = self.dequeue_pos.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == pos.wrapping_add(1) {
                match self.dequeue_pos.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: winning the CAS makes this thread the
                        // slot's unique owner until the release store
                        // below recycles it for producers one lap ahead.
                        let value = unsafe { (*slot.value.get()).take() };
                        slot.seq
                            .store(pos.wrapping_add(self.mask + 1), Ordering::Release);
                        return value;
                    }
                    Err(actual) => pos = actual,
                }
            } else if seq == pos {
                // Slot not yet published: empty.
                return None;
            } else {
                pos = self.dequeue_pos.load(Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_single_thread() {
        let ring: Ring<String> = Ring::with_capacity(8);
        assert!(ring.is_empty());
        for i in 0..5 {
            ring.push(format!("line{i}")).unwrap();
        }
        assert_eq!(ring.len(), 5);
        for i in 0..5 {
            assert_eq!(ring.pop().as_deref(), Some(format!("line{i}").as_str()));
        }
        assert_eq!(ring.pop(), None);
        assert!(ring.is_empty());
    }

    #[test]
    fn full_ring_returns_the_value_back() {
        let ring = Ring::with_capacity(4);
        for i in 0..4 {
            ring.push(i.to_string()).unwrap();
        }
        assert_eq!(ring.push("overflow".into()), Err("overflow".to_string()));
        // Draining one makes room for exactly one more.
        assert_eq!(ring.pop().as_deref(), Some("0"));
        ring.push("again".into()).unwrap();
        assert!(ring.push("still full".into()).is_err());
    }

    #[test]
    fn capacity_rounds_up_to_a_power_of_two() {
        assert_eq!(Ring::<String>::with_capacity(0).capacity(), 2);
        assert_eq!(Ring::<String>::with_capacity(3).capacity(), 4);
        assert_eq!(Ring::<String>::with_capacity(64).capacity(), 64);
        assert_eq!(Ring::<String>::with_capacity(65).capacity(), 128);
    }

    #[test]
    fn slots_recycle_across_many_laps() {
        let ring = Ring::with_capacity(4);
        for lap in 0..100 {
            for i in 0..4 {
                ring.push(format!("{lap}:{i}")).unwrap();
            }
            for i in 0..4 {
                assert_eq!(ring.pop().as_deref(), Some(format!("{lap}:{i}").as_str()));
            }
        }
    }

    #[test]
    fn concurrent_producers_one_consumer_lose_nothing_and_keep_order() {
        // Many producers racing a live consumer on a small ring: every
        // line is either drained or was rejected at push time, and each
        // producer's accepted lines come out in its own push order.
        const PRODUCERS: usize = 4;
        const PER_PRODUCER: usize = 5_000;
        let ring = Ring::with_capacity(64);
        let drained = std::sync::Mutex::new(Vec::new());
        let rejected = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for p in 0..PRODUCERS {
                let (ring, done, rejected) = (&ring, &done, &rejected);
                scope.spawn(move || {
                    for i in 0..PER_PRODUCER {
                        if ring.push(format!("{p}:{i}")).is_err() {
                            rejected.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    done.fetch_add(1, Ordering::Release);
                });
            }
            let (ring, done, drained) = (&ring, &done, &drained);
            scope.spawn(move || {
                let mut out = Vec::new();
                loop {
                    match ring.pop() {
                        Some(line) => out.push(line),
                        None if done.load(Ordering::Acquire) == PRODUCERS => {
                            // The acquire pairs with each producer's
                            // release increment, so every accepted push
                            // is now visible; one last drain finishes.
                            while let Some(line) = ring.pop() {
                                out.push(line);
                            }
                            break;
                        }
                        None => std::thread::yield_now(),
                    }
                }
                *drained.lock().unwrap() = out;
            });
        });
        let drained = drained.into_inner().unwrap();
        assert_eq!(
            drained.len() + rejected.load(Ordering::Relaxed),
            PRODUCERS * PER_PRODUCER,
            "drained + rejected must equal pushed"
        );
        // Per-producer FIFO: indices appear strictly increasing.
        let mut last = [-1i64; PRODUCERS];
        for line in &drained {
            let (p, i) = line.split_once(':').unwrap();
            let (p, i): (usize, i64) = (p.parse().unwrap(), i.parse().unwrap());
            assert!(i > last[p], "producer {p} reordered: {i} after {}", last[p]);
            last[p] = i;
        }
    }
}
