//! Bounded, tenant-fair job queue — the daemon's admission control.
//!
//! The queue holds at most `capacity` job ids, total, across all
//! tenants: a flood of submissions meets a structured
//! `429 Retry-After` at the door instead of unbounded memory growth.
//! Dispatch is round-robin across tenants with work queued (each tenant
//! keeps FIFO order internally), so one tenant's thousand-job backlog
//! cannot starve another's single job.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity — answer `429 Retry-After`.
    Full,
    /// The daemon is draining — answer `503`.
    Draining,
}

struct Inner {
    /// `(tenant, jobs)` in rotation order; entries persist while empty
    /// (tenant count is small and bounded by distinct submitters).
    tenants: Vec<(String, VecDeque<u64>)>,
    /// Rotation cursor: index of the tenant served *next*.
    cursor: usize,
    /// Total queued jobs across tenants.
    len: usize,
    draining: bool,
}

/// The bounded fair queue.
pub struct JobQueue {
    inner: Mutex<Inner>,
    available: Condvar,
    capacity: usize,
}

impl JobQueue {
    /// A queue admitting at most `capacity` jobs at once.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        JobQueue {
            inner: Mutex::new(Inner {
                tenants: Vec::new(),
                cursor: 0,
                len: 0,
                draining: false,
            }),
            available: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Admits a job for `tenant`.
    ///
    /// # Errors
    ///
    /// [`PushError::Full`] at capacity, [`PushError::Draining`] after
    /// [`JobQueue::drain`].
    pub fn push(&self, tenant: &str, job: u64) -> Result<(), PushError> {
        let mut inner = self.lock();
        if inner.draining {
            return Err(PushError::Draining);
        }
        if inner.len >= self.capacity {
            return Err(PushError::Full);
        }
        match inner.tenants.iter_mut().find(|(t, _)| t == tenant) {
            Some((_, jobs)) => jobs.push_back(job),
            None => {
                let mut jobs = VecDeque::new();
                jobs.push_back(job);
                inner.tenants.push((tenant.to_string(), jobs));
            }
        }
        inner.len += 1;
        drop(inner);
        self.available.notify_one();
        Ok(())
    }

    /// Takes the next job in round-robin tenant order, waiting while
    /// the queue is empty. `None` once the queue is draining and empty:
    /// no job will ever come.
    pub fn pop(&self) -> Option<u64> {
        let mut inner = self
            .available
            .wait_while(self.lock(), |inner| inner.len == 0 && !inner.draining)
            .unwrap_or_else(PoisonError::into_inner);
        if inner.len == 0 {
            return None;
        }
        let n = inner.tenants.len();
        for step in 0..n {
            let idx = (inner.cursor + step) % n;
            if let Some(job) = inner.tenants[idx].1.pop_front() {
                // Next pop starts with the *following* tenant: strict
                // rotation even when this tenant has more queued.
                inner.cursor = (idx + 1) % n;
                inner.len -= 1;
                return Some(job);
            }
        }
        None
    }

    /// Jobs currently queued.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().len
    }

    /// Whether no jobs are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Closes admission; queued jobs still drain to workers.
    pub fn drain(&self) {
        self.lock().draining = true;
        self.available.notify_all();
    }

    /// Whether [`JobQueue::drain`] has been called.
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.lock().draining
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn bounded_admission() {
        let q = JobQueue::new(2);
        q.push("a", 1).unwrap();
        q.push("a", 2).unwrap();
        assert_eq!(q.push("a", 3), Err(PushError::Full));
        assert_eq!(q.push("b", 4), Err(PushError::Full), "cap is global");
        assert_eq!(q.pop(), Some(1));
        q.push("b", 5).unwrap();
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn round_robin_across_tenants() {
        let q = JobQueue::new(16);
        for job in [1, 2, 3] {
            q.push("alice", job).unwrap();
        }
        q.push("bob", 10).unwrap();
        q.push("carol", 20).unwrap();
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).take(5).collect();
        // Alice submitted first but bob and carol interleave: her
        // backlog cannot starve them.
        assert_eq!(order, vec![1, 10, 20, 2, 3]);
    }

    #[test]
    fn draining_refuses_new_work_but_serves_queued() {
        let q = JobQueue::new(4);
        q.push("a", 1).unwrap();
        q.drain();
        assert_eq!(q.push("a", 2), Err(PushError::Draining));
        assert_eq!(q.pop(), Some(1));
        assert!(q.is_empty());
        assert_eq!(q.pop(), None, "drained and empty: nothing more will come");
    }

    #[test]
    fn pop_blocks_until_push() {
        let q = Arc::new(JobQueue::new(4));
        let q2 = Arc::clone(&q);
        let handle = std::thread::spawn(move || q2.pop());
        std::thread::sleep(Duration::from_millis(30));
        q.push("a", 7).unwrap();
        assert_eq!(handle.join().unwrap(), Some(7));
    }

    #[test]
    fn drain_wakes_a_pop_blocked_on_an_empty_queue() {
        let q = Arc::new(JobQueue::new(4));
        let q2 = Arc::clone(&q);
        let handle = std::thread::spawn(move || q2.pop());
        std::thread::sleep(Duration::from_millis(30));
        q.drain();
        assert_eq!(handle.join().unwrap(), None);
    }
}
