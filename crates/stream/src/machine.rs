//! Machine pools: the rented instances of one type, modelled as a multi-server
//! FIFO queue with deterministic service times.
//!
//! A pool of type `q` has `x_q` identical servers; each serves one task in
//! `1/r_q` time units. Pending tasks of type `q` (from any recipe and any
//! item) wait in a single FIFO queue, matching the paper's assumption that
//! machines of a type are freely shared between recipes.

use std::collections::VecDeque;

use crate::event::SimTime;

/// A piece of work waiting for (or being processed by) a machine pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkItem {
    /// Global item index.
    pub item: usize,
    /// Task index inside the item's recipe.
    pub task: usize,
}

/// The pool of machines of a single type.
#[derive(Debug, Clone)]
pub struct MachinePool {
    servers: u64,
    busy: u64,
    service_time: SimTime,
    queue: VecDeque<WorkItem>,
    /// Accumulated busy machine-time, for utilisation reporting.
    busy_time: f64,
    /// Peak length of the waiting queue.
    peak_queue: usize,
}

impl MachinePool {
    /// Creates a pool of `servers` machines, each processing one task in
    /// `1 / throughput` time units.
    pub fn new(servers: u64, throughput: u64) -> Self {
        assert!(throughput > 0, "machine throughput must be positive");
        MachinePool {
            servers,
            busy: 0,
            service_time: 1.0 / throughput as f64,
            queue: VecDeque::new(),
            busy_time: 0.0,
            peak_queue: 0,
        }
    }

    /// Peak number of queued tasks observed so far.
    pub fn peak_queue(&self) -> usize {
        self.peak_queue
    }

    /// Offers a task to the pool. Returns `Some(completion_time)` if a free
    /// machine starts serving it immediately, `None` if it was queued.
    pub fn offer(&mut self, work: WorkItem, now: SimTime) -> Option<SimTime> {
        if self.busy < self.servers {
            self.busy += 1;
            self.busy_time += self.service_time;
            Some(now + self.service_time)
        } else {
            self.queue.push_back(work);
            self.peak_queue = self.peak_queue.max(self.queue.len());
            None
        }
    }

    /// Signals that one machine finished its current task. Returns the next
    /// queued task to start (with its completion time) if any; otherwise the
    /// machine goes idle.
    pub fn complete(&mut self, now: SimTime) -> Option<(WorkItem, SimTime)> {
        debug_assert!(self.busy > 0, "completion on an idle pool");
        match self.queue.pop_front() {
            Some(work) => {
                // The machine immediately starts the next queued task.
                self.busy_time += self.service_time;
                Some((work, now + self.service_time))
            }
            None => {
                self.busy -= 1;
                None
            }
        }
    }

    /// Utilisation of the pool over a horizon: busy machine-time divided by
    /// available machine-time. Returns 0 for empty pools.
    pub fn utilisation(&self, horizon: SimTime) -> f64 {
        if self.servers == 0 || horizon <= 0.0 {
            0.0
        } else {
            (self.busy_time / (self.servers as f64 * horizon)).min(1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_pool_serves_immediately() {
        let mut pool = MachinePool::new(2, 10);
        let done = pool.offer(WorkItem { item: 0, task: 0 }, 5.0);
        assert_eq!(done, Some(5.1));
        assert_eq!(pool.busy, 1);
        assert_eq!(pool.queue.len(), 0);
    }

    #[test]
    fn saturated_pool_queues_work() {
        let mut pool = MachinePool::new(1, 10);
        assert!(pool.offer(WorkItem { item: 0, task: 0 }, 0.0).is_some());
        assert!(pool.offer(WorkItem { item: 1, task: 0 }, 0.0).is_none());
        assert_eq!(pool.queue.len(), 1);
        assert_eq!(pool.peak_queue(), 1);
        // Completion hands the queued task to the freed machine.
        let next = pool.complete(0.1);
        assert_eq!(next, Some((WorkItem { item: 1, task: 0 }, 0.2)));
        assert_eq!(pool.queue.len(), 0);
        assert_eq!(pool.busy, 1);
        // Final completion leaves the pool idle.
        assert_eq!(pool.complete(0.2), None);
        assert_eq!(pool.busy, 0);
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut pool = MachinePool::new(1, 1);
        pool.offer(WorkItem { item: 0, task: 0 }, 0.0);
        pool.offer(WorkItem { item: 1, task: 0 }, 0.0);
        pool.offer(WorkItem { item: 2, task: 0 }, 0.0);
        let (first, _) = pool.complete(1.0).unwrap();
        let (second, _) = pool.complete(2.0).unwrap();
        assert_eq!(first.item, 1);
        assert_eq!(second.item, 2);
    }

    #[test]
    fn utilisation_tracks_busy_time() {
        let mut pool = MachinePool::new(2, 10); // service time 0.1
        pool.offer(WorkItem { item: 0, task: 0 }, 0.0);
        pool.offer(WorkItem { item: 1, task: 0 }, 0.0);
        pool.complete(0.1);
        pool.complete(0.1);
        // 2 tasks x 0.1 machine-time over 2 machines x 1.0 horizon = 0.1.
        assert!((pool.utilisation(1.0) - 0.1).abs() < 1e-12);
        assert_eq!(pool.utilisation(0.0), 0.0);
    }

    #[test]
    fn zero_server_pool_always_queues() {
        let mut pool = MachinePool::new(0, 5);
        assert!(pool.offer(WorkItem { item: 0, task: 0 }, 0.0).is_none());
        assert_eq!(pool.utilisation(10.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_throughput_is_rejected() {
        MachinePool::new(1, 0);
    }
}
