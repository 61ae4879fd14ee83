//! Bounded, client-fair **admission control** over the shared worker pool.
//!
//! The engine serves many clients on one `DistContext`/`WorkerPool`; this
//! module decides *which query runs next*. At most `max_in_flight` queries
//! execute concurrently; beyond that, submissions wait in per-client FIFO
//! sub-queues granted in **round-robin order over clients**, so one chatty
//! client cannot starve the others — its second query waits behind every
//! other client's first. The total number of waiters is bounded by
//! `queue_capacity`: when the queue is full, [`AdmissionQueue::acquire`]
//! returns a typed rejection immediately (the engine surfaces it as
//! [`crate::ServeError::Busy`]) instead of buffering without bound.

use std::collections::{BTreeMap, HashSet, VecDeque};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// A successful admission: how long the submission waited in the queue.
pub(crate) struct Admitted {
    pub queue_wait: Duration,
}

/// The queue-full rejection: the load observed at rejection time.
#[derive(Debug)]
pub(crate) struct Rejected {
    pub in_flight: usize,
    pub queued: usize,
}

#[derive(Default)]
struct AdmState {
    in_flight: usize,
    queued: usize,
    next_ticket: u64,
    /// FIFO of waiting tickets per client.
    waiters: BTreeMap<String, VecDeque<u64>>,
    /// Round-robin order over the clients that currently have waiters.
    rr: VecDeque<String>,
    /// Tickets granted a slot but not yet picked up by their thread.
    granted: HashSet<u64>,
}

pub(crate) struct AdmissionQueue {
    max_in_flight: usize,
    queue_capacity: usize,
    state: Mutex<AdmState>,
    cv: Condvar,
}

impl AdmissionQueue {
    pub fn new(max_in_flight: usize, queue_capacity: usize) -> AdmissionQueue {
        AdmissionQueue {
            max_in_flight: max_in_flight.max(1),
            queue_capacity,
            state: Mutex::new(AdmState::default()),
            cv: Condvar::new(),
        }
    }

    /// Acquires an execution slot for `client`, blocking fairly while the
    /// engine is saturated. Returns the typed rejection without blocking
    /// when the wait queue is already full. Every `Ok` must be paired with
    /// exactly one [`release`](AdmissionQueue::release).
    pub fn acquire(&self, client: &str) -> Result<Admitted, Rejected> {
        let t0 = Instant::now();
        let mut st = self.lock();
        // Fast path only when nobody is waiting — a free slot with waiters
        // present belongs to the head of the round-robin, not to us.
        if st.in_flight < self.max_in_flight && st.queued == 0 {
            st.in_flight += 1;
            return Ok(Admitted {
                queue_wait: t0.elapsed(),
            });
        }
        if st.queued >= self.queue_capacity {
            return Err(Rejected {
                in_flight: st.in_flight,
                queued: st.queued,
            });
        }
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        let newly_waiting = {
            let q = st.waiters.entry(client.to_string()).or_default();
            let was_empty = q.is_empty();
            q.push_back(ticket);
            was_empty
        };
        if newly_waiting {
            st.rr.push_back(client.to_string());
        }
        st.queued += 1;
        self.grant_locked(&mut st);
        while !st.granted.remove(&ticket) {
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        Ok(Admitted {
            queue_wait: t0.elapsed(),
        })
    }

    /// Returns an execution slot, granting it to the next waiter (fair
    /// round-robin across clients).
    pub fn release(&self) {
        let mut st = self.lock();
        debug_assert!(st.in_flight > 0, "release without a matching acquire");
        st.in_flight -= 1;
        self.grant_locked(&mut st);
    }

    /// Current load: `(in_flight, queued)`.
    pub fn depth(&self) -> (usize, usize) {
        let st = self.lock();
        (st.in_flight, st.queued)
    }

    /// The state lock, recovered from poison as the engine's registry and
    /// plan-cache locks are: nothing here panics between two updates of the
    /// state, so a holder that panicked left it consistent.
    fn lock(&self) -> MutexGuard<'_, AdmState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn grant_locked(&self, st: &mut AdmState) {
        let mut granted_any = false;
        while st.in_flight < self.max_in_flight && st.queued > 0 {
            // `rr` holds exactly the clients with waiters; the `else` arms
            // only guard that invariant.
            let Some(client) = st.rr.pop_front() else {
                break;
            };
            let Some(q) = st.waiters.get_mut(&client) else {
                continue;
            };
            let Some(ticket) = q.pop_front() else {
                continue;
            };
            if q.is_empty() {
                st.waiters.remove(&client);
            } else {
                st.rr.push_back(client);
            }
            st.granted.insert(ticket);
            st.queued -= 1;
            st.in_flight += 1;
            granted_any = true;
        }
        if granted_any {
            self.cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fast_path_grants_up_to_max() {
        let q = AdmissionQueue::new(2, 4);
        assert!(q.acquire("a").is_ok());
        assert!(q.acquire("b").is_ok());
        assert_eq!(q.depth(), (2, 0));
        q.release();
        q.release();
        assert_eq!(q.depth(), (0, 0));
    }

    #[test]
    fn queue_full_rejects_immediately() {
        let q = Arc::new(AdmissionQueue::new(1, 0));
        assert!(q.acquire("a").is_ok());
        let err = q.acquire("b").err().expect("zero-capacity queue rejects");
        assert_eq!(err.in_flight, 1);
        assert_eq!(err.queued, 0);
        q.release();
    }

    #[test]
    fn round_robin_interleaves_clients() {
        // One slot; client `a` floods, client `b` submits one. `b`'s query
        // must be granted before `a`'s *second*, despite arriving after it.
        let q = Arc::new(AdmissionQueue::new(1, 8));
        assert!(q.acquire("hold").is_ok());
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for (client, delay_ms) in [("a", 0u64), ("a", 20), ("b", 40)] {
            let q = q.clone();
            let order = order.clone();
            handles.push(std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(delay_ms));
                q.acquire(client).unwrap();
                order.lock().unwrap().push(client);
                q.release();
            }));
        }
        // Let all three enqueue behind the held slot, then free it.
        std::thread::sleep(Duration::from_millis(200));
        q.release();
        for h in handles {
            h.join().unwrap();
        }
        let order = order.lock().unwrap().clone();
        assert_eq!(order, vec!["a", "b", "a"]);
    }

    #[test]
    fn admits_after_a_holder_of_the_state_lock_panicked() {
        let q = Arc::new(AdmissionQueue::new(1, 4));
        let poisoner = q.clone();
        let panicked = std::thread::spawn(move || {
            let _guard = poisoner.state.lock().unwrap();
            panic!("panic while holding the admission state lock");
        })
        .join();
        assert!(panicked.is_err());
        assert!(q.state.is_poisoned());
        assert!(q.acquire("a").is_ok());
        assert_eq!(q.depth(), (1, 0));
        // A waiter is still granted the slot a release frees.
        let waiter = {
            let q = q.clone();
            std::thread::spawn(move || q.acquire("b").is_ok())
        };
        while q.depth().1 == 0 {
            std::thread::yield_now();
        }
        q.release();
        assert!(waiter.join().unwrap());
        assert_eq!(q.depth(), (1, 0));
        q.release();
        assert_eq!(q.depth(), (0, 0));
    }
}
