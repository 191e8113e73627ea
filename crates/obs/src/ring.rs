//! A bounded lock-free MPMC ring buffer (Vyukov's sequence-stamped array
//! queue) — the tracer's sink. Producers on device worker threads push
//! without taking a lock; when the buffer is full, pushes are counted and
//! dropped rather than blocking the instrumented hot path.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

struct Slot<T> {
    /// Sequence stamp: `pos` when empty and claimable by the producer at
    /// `pos`, `pos + 1` when full and claimable by the consumer at `pos`.
    seq: AtomicUsize,
    value: UnsafeCell<MaybeUninit<T>>,
}

pub struct Ring<T> {
    buf: Box<[Slot<T>]>,
    mask: usize,
    enqueue_pos: AtomicUsize,
    dequeue_pos: AtomicUsize,
    dropped: AtomicU64,
}

// SAFETY: slots hand values across threads, protected by the seq protocol.
unsafe impl<T: Send> Send for Ring<T> {}
// SAFETY: shared access only moves values through slots whose sole owner
// (producer or consumer) the seq protocol's CAS establishes.
unsafe impl<T: Send> Sync for Ring<T> {}

impl<T> Ring<T> {
    /// Capacity is rounded up to a power of two (minimum 2).
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.next_power_of_two().max(2);
        let buf = (0..cap)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Ring {
            buf,
            mask: cap - 1,
            enqueue_pos: AtomicUsize::new(0),
            dequeue_pos: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Push without blocking; returns `false` (and bumps the drop counter)
    /// when the ring is full.
    pub fn push(&self, value: T) -> bool {
        let mut pos = self.enqueue_pos.load(Ordering::Relaxed);
        loop {
            let slot = &self.buf[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = seq as isize - pos as isize;
            if diff == 0 {
                match self.enqueue_pos.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS made this producer the slot's sole
                        // owner until the seq store publishes it.
                        unsafe { (*slot.value.get()).write(value) };
                        slot.seq.store(pos.wrapping_add(1), Ordering::Release);
                        return true;
                    }
                    Err(actual) => pos = actual,
                }
            } else if diff < 0 {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                return false;
            } else {
                pos = self.enqueue_pos.load(Ordering::Relaxed);
            }
        }
    }

    /// Pop the oldest element, or `None` when empty.
    pub fn pop(&self) -> Option<T> {
        let mut pos = self.dequeue_pos.load(Ordering::Relaxed);
        loop {
            let slot = &self.buf[pos & self.mask];
            let seq = slot.seq.load(Ordering::Acquire);
            let diff = seq as isize - pos.wrapping_add(1) as isize;
            if diff == 0 {
                match self.dequeue_pos.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY: the CAS made this consumer the slot's sole
                        // owner; the slot holds an initialized value.
                        let value = unsafe { (*slot.value.get()).assume_init_read() };
                        slot.seq
                            .store(pos.wrapping_add(self.mask + 1), Ordering::Release);
                        return Some(value);
                    }
                    Err(actual) => pos = actual,
                }
            } else if diff < 0 {
                return None;
            } else {
                pos = self.dequeue_pos.load(Ordering::Relaxed);
            }
        }
    }

    /// Number of pushes rejected because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    pub fn capacity(&self) -> usize {
        self.buf.len()
    }
}

impl<T> Drop for Ring<T> {
    fn drop(&mut self) {
        while self.pop().is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_within_capacity_and_drop_on_full() {
        let ring = Ring::with_capacity(4);
        for i in 0..4 {
            assert!(ring.push(i));
        }
        assert!(!ring.push(99), "fifth push must be rejected");
        assert_eq!(ring.dropped(), 1);
        assert_eq!(
            (0..4).map(|_| ring.pop().unwrap()).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        assert!(ring.pop().is_none());
        // Freed capacity is reusable.
        assert!(ring.push(7));
        assert_eq!(ring.pop(), Some(7));
    }

    #[test]
    fn concurrent_producers_lose_nothing_within_capacity() {
        let ring = Arc::new(Ring::with_capacity(1 << 12));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let ring = ring.clone();
                std::thread::spawn(move || {
                    for i in 0..512u64 {
                        assert!(ring.push(t as u64 * 1000 + i));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let mut seen = Vec::new();
        while let Some(v) = ring.pop() {
            seen.push(v);
        }
        assert_eq!(seen.len(), 4 * 512);
        assert_eq!(ring.dropped(), 0);
        // Per-producer order is preserved.
        for t in 0..4u64 {
            let mine: Vec<u64> = seen.iter().copied().filter(|v| v / 1000 == t).collect();
            assert!(mine.windows(2).all(|w| w[0] < w[1]));
        }
    }
}
