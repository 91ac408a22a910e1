//! Asynchronous compaction scheduling (§III-D, last paragraphs).
//!
//! Compaction used to run inline on the serving path, triggered by incoming
//! requests, and hurt tail latency; the paper's fix was to delegate it to a
//! dedicated thread pool with capped parallelism. Here the request path only
//! enqueues: the scheduler is a deduplicated work queue of profile ids, and
//! [`CompactionScheduler::run_pending`] drains a bounded batch of it when the
//! host calls `IpsInstance::tick`. The per-tick budget caps compaction's
//! share of the host, as the pool size did; whoever calls `tick` plays the
//! paper's pool.

use std::collections::{HashSet, VecDeque};

use parking_lot::Mutex;

use ips_metrics::Counter;
use ips_types::ProfileId;

/// One queued compaction request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CompactionTask {
    pub profile: ProfileId,
    /// Full pass (long slice lists) vs partial (bounded merge count).
    pub full: bool,
}

struct Queue {
    tasks: VecDeque<CompactionTask>,
    queued: HashSet<ProfileId>,
}

/// A deduplicated compaction work queue.
pub struct CompactionScheduler {
    queue: Mutex<Queue>,
    handler: Box<dyn Fn(CompactionTask) + Send + Sync>,
    pub scheduled: Counter,
    pub executed: Counter,
    pub deduplicated: Counter,
}

impl CompactionScheduler {
    /// Build a scheduler that executes tasks with `handler`.
    #[must_use]
    pub fn new(handler: impl Fn(CompactionTask) + Send + Sync + 'static) -> Self {
        Self {
            queue: Mutex::new(Queue {
                tasks: VecDeque::new(),
                queued: HashSet::new(),
            }),
            handler: Box::new(handler),
            scheduled: Counter::new(),
            executed: Counter::new(),
            deduplicated: Counter::new(),
        }
    }

    /// Enqueue a task. A profile already queued is not queued twice (its
    /// `full` flag is upgraded if the new request wants a full pass).
    pub fn schedule(&self, task: CompactionTask) {
        let mut q = self.queue.lock();
        if q.queued.contains(&task.profile) {
            self.deduplicated.inc();
            if task.full {
                if let Some(existing) = q.tasks.iter_mut().find(|t| t.profile == task.profile) {
                    existing.full = true;
                }
            }
            return;
        }
        q.queued.insert(task.profile);
        q.tasks.push_back(task);
        self.scheduled.inc();
    }

    /// Pending queue depth.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.queue.lock().tasks.len()
    }

    /// Execute up to `budget` pending tasks on the calling thread. Returns
    /// tasks run.
    pub fn run_pending(&self, budget: usize) -> usize {
        let mut run = 0;
        while run < budget {
            let task = {
                let mut q = self.queue.lock();
                match q.tasks.pop_front() {
                    Some(t) => {
                        q.queued.remove(&t.profile);
                        t
                    }
                    None => break,
                }
            };
            (self.handler)(task);
            self.executed.inc();
            run += 1;
        }
        run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn pid(n: u64) -> ProfileId {
        ProfileId::new(n)
    }

    #[test]
    fn schedule_and_pump() {
        let ran = Arc::new(Mutex::new(Vec::new()));
        let ran2 = Arc::clone(&ran);
        let s = CompactionScheduler::new(move |t| ran2.lock().push(t));
        s.schedule(CompactionTask {
            profile: pid(1),
            full: false,
        });
        s.schedule(CompactionTask {
            profile: pid(2),
            full: true,
        });
        assert_eq!(s.pending(), 2);
        assert_eq!(s.run_pending(10), 2);
        assert_eq!(s.pending(), 0);
        let tasks = ran.lock();
        assert_eq!(tasks.len(), 2);
        assert!(tasks[1].full);
    }

    #[test]
    fn duplicate_profiles_are_coalesced() {
        let count = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&count);
        let s = CompactionScheduler::new(move |_| {
            c2.fetch_add(1, Ordering::Relaxed);
        });
        for _ in 0..10 {
            s.schedule(CompactionTask {
                profile: pid(1),
                full: false,
            });
        }
        assert_eq!(s.pending(), 1);
        assert_eq!(s.deduplicated.get(), 9);
        s.run_pending(100);
        assert_eq!(count.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn duplicate_upgrades_to_full() {
        let full_flags = Arc::new(Mutex::new(Vec::new()));
        let f2 = Arc::clone(&full_flags);
        let s = CompactionScheduler::new(move |t| f2.lock().push(t.full));
        s.schedule(CompactionTask {
            profile: pid(1),
            full: false,
        });
        s.schedule(CompactionTask {
            profile: pid(1),
            full: true,
        });
        s.run_pending(10);
        assert_eq!(*full_flags.lock(), vec![true]);
    }

    #[test]
    fn budget_limits_pump() {
        let count = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&count);
        let s = CompactionScheduler::new(move |_| {
            c2.fetch_add(1, Ordering::Relaxed);
        });
        for n in 0..10 {
            s.schedule(CompactionTask {
                profile: pid(n),
                full: false,
            });
        }
        assert_eq!(s.run_pending(3), 3);
        assert_eq!(s.pending(), 7);
    }

    #[test]
    fn rescheduling_after_execution_works() {
        let count = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&count);
        let s = CompactionScheduler::new(move |_| {
            c2.fetch_add(1, Ordering::Relaxed);
        });
        let task = CompactionTask {
            profile: pid(1),
            full: false,
        };
        s.schedule(task);
        s.run_pending(1);
        s.schedule(task); // not a duplicate anymore
        s.run_pending(1);
        assert_eq!(count.load(Ordering::Relaxed), 2);
    }
}
