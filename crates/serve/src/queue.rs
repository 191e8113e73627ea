//! Admission queue: coalesce concurrent client requests into multi-RHS
//! batches.
//!
//! Policy (`max_batch` columns, `max_wait` seconds):
//!
//! * requests are held in arrival order;
//! * the queue releases a batch for the **head** request's operator key —
//!   strictly FIFO in the head position, so no key can be starved by a
//!   busier neighbour;
//! * release fires when the head key's pending width reaches `max_batch`,
//!   or the head request has waited `max_wait` since its arrival;
//! * a batch gathers pending requests *of the head key only*, in arrival
//!   order, while their summed column count fits in `max_batch` (requests
//!   are never split — a client's columns stay contiguous in the batch).

use crate::cache::OpKey;
use h2_dense::Mat;
use std::collections::VecDeque;

/// One client request: solve the operator identified by `key` against the
/// columns of `rhs` (tree-permuted coordinates), submitted at modeled time
/// `arrival`.
pub struct Request {
    pub id: u64,
    pub key: OpKey,
    pub arrival: f64,
    pub rhs: Mat,
}

impl Request {
    /// Number of right-hand-side columns this request contributes.
    pub fn width(&self) -> usize {
        self.rhs.cols()
    }
}

/// Coalescing policy knobs.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionPolicy {
    /// Release a batch once this many columns are pending for the head key.
    pub max_batch: usize,
    /// Release the head's batch after it has waited this long (modeled
    /// seconds) even if under-full.
    pub max_wait: f64,
}

/// A released batch: same-key requests whose RHS columns ride one blocked
/// sweep.
pub struct Batch {
    pub key: OpKey,
    pub requests: Vec<Request>,
}

impl Batch {
    /// Total RHS columns across the coalesced requests.
    pub fn width(&self) -> usize {
        self.requests.iter().map(|r| r.width()).sum()
    }
}

/// Arrival-ordered coalescing queue (see module docs for the policy).
pub struct AdmissionQueue {
    policy: AdmissionPolicy,
    pending: VecDeque<Request>,
}

impl AdmissionQueue {
    pub fn new(policy: AdmissionPolicy) -> Self {
        assert!(policy.max_batch >= 1, "max_batch must admit one column");
        AdmissionQueue {
            policy,
            pending: VecDeque::new(),
        }
    }

    pub fn policy(&self) -> AdmissionPolicy {
        self.policy
    }

    pub fn len(&self) -> usize {
        self.pending.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Enqueue a request (callers admit in nondecreasing arrival order).
    pub fn push(&mut self, req: Request) {
        self.pending.push_back(req);
    }

    /// The next time a release could fire without new arrivals: the head
    /// request's `max_wait` deadline.
    pub fn next_deadline(&self) -> Option<f64> {
        self.pending
            .front()
            .map(|r| r.arrival + self.policy.max_wait)
    }

    /// Pending column count for the head request's key.
    fn head_width(&self) -> usize {
        let key = match self.pending.front() {
            Some(r) => &r.key,
            None => return 0,
        };
        self.pending
            .iter()
            .filter(|r| &r.key == key)
            .map(|r| r.width())
            .sum()
    }

    /// Release the head batch if the policy fires at time `now`; otherwise
    /// `None` (wait for more arrivals or the deadline).
    pub fn poll(&mut self, now: f64) -> Option<Batch> {
        let head = self.pending.front()?;
        let deadline_hit = now >= head.arrival + self.policy.max_wait;
        if self.head_width() >= self.policy.max_batch || deadline_hit {
            return self.release_head();
        }
        None
    }

    /// Release the head batch unconditionally (end-of-workload drain).
    pub fn flush(&mut self) -> Option<Batch> {
        self.release_head()
    }

    fn release_head(&mut self) -> Option<Batch> {
        let key = self.pending.front()?.key.clone();
        let mut requests = Vec::new();
        let mut width = 0;
        let mut kept = VecDeque::with_capacity(self.pending.len());
        for req in self.pending.drain(..) {
            let take = req.key == key
                && (requests.is_empty() || width + req.width() <= self.policy.max_batch);
            if take {
                width += req.width();
                requests.push(req);
            } else {
                kept.push_back(req);
            }
        }
        self.pending = kept;
        Some(Batch { key, requests })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(name: &str) -> OpKey {
        OpKey::from_hash(name, 7, 1e-6)
    }

    fn req(id: u64, k: &str, arrival: f64, width: usize) -> Request {
        Request {
            id,
            key: key(k),
            arrival,
            rhs: Mat::zeros(4, width),
        }
    }

    #[test]
    fn admission_order_is_preserved_within_a_batch() {
        let mut q = AdmissionQueue::new(AdmissionPolicy {
            max_batch: 8,
            max_wait: 1.0,
        });
        for (i, t) in [(0u64, 0.00), (1, 0.01), (2, 0.02)] {
            q.push(req(i, "a", t, 3));
        }
        // 3 + 3 + 3 > 8: the batch takes the first two (6 cols), leaves #2.
        let b = q.poll(0.02).expect("width trigger");
        assert_eq!(b.width(), 6);
        assert_eq!(
            b.requests.iter().map(|r| r.id).collect::<Vec<_>>(),
            vec![0, 1]
        );
        assert_eq!(q.len(), 1);
        // Under-full remainder holds until its deadline...
        assert!(q.poll(0.5).is_none());
        // ...then flushes alone.
        let b2 = q.poll(1.02).expect("deadline trigger");
        assert_eq!(b2.requests[0].id, 2);
        assert!(q.is_empty());
    }

    #[test]
    fn head_key_is_never_starved_and_keys_do_not_mix() {
        let mut q = AdmissionQueue::new(AdmissionPolicy {
            max_batch: 4,
            max_wait: 10.0,
        });
        q.push(req(0, "a", 0.0, 1));
        q.push(req(1, "b", 0.1, 4));
        q.push(req(2, "a", 0.2, 3));
        // Key b alone has a full batch, but a holds the head: nothing fires
        // until a's width (1 + 3 = 4) completes it.
        let b = q.poll(0.2).expect("head key fills");
        assert_eq!(b.key, key("a"));
        assert_eq!(
            b.requests.iter().map(|r| r.id).collect::<Vec<_>>(),
            vec![0, 2]
        );
        // b is next, now at the head and full.
        let b2 = q.poll(0.2).expect("b fires");
        assert_eq!(b2.key, key("b"));
        assert_eq!(b2.width(), 4);
    }

    #[test]
    fn max_wait_flushes_underfull_head() {
        let mut q = AdmissionQueue::new(AdmissionPolicy {
            max_batch: 32,
            max_wait: 0.25,
        });
        q.push(req(0, "a", 1.0, 2));
        assert!(q.poll(1.2).is_none());
        assert_eq!(q.next_deadline(), Some(1.25));
        let b = q.poll(1.25).expect("deadline flush");
        assert_eq!(b.width(), 2);
    }

    #[test]
    fn oversize_request_is_released_alone() {
        let mut q = AdmissionQueue::new(AdmissionPolicy {
            max_batch: 4,
            max_wait: 1.0,
        });
        q.push(req(0, "a", 0.0, 9));
        let b = q.poll(0.0).expect("width >= max_batch fires immediately");
        assert_eq!(b.width(), 9, "requests are never split");
    }
}
