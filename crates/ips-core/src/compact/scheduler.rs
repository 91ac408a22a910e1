//! Asynchronous compaction scheduling (§III-D, last paragraphs).
//!
//! Compaction used to run inline on the serving path, triggered by incoming
//! requests, and hurt tail latency; the paper's fix was to delegate it to a
//! dedicated thread pool with capped parallelism. Here the request path only
//! enqueues: the scheduler is a deduplicated work queue of profile ids, full
//! passes ahead of partial ones, and
//! [`CompactionScheduler::run_pending`] drains a bounded batch of it when the
//! host calls `IpsInstance::tick`. The per-tick budget caps compaction's
//! share of the host, as the pool size did; whoever calls `tick` plays the
//! paper's pool.

use std::collections::{HashMap, VecDeque};

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

/// Full passes run before partial ones: a profile past its slice limit
/// must not wait behind the backlog of throttled partial passes, which can
/// outgrow what a tick drains.
#[derive(Default)]
struct Queue {
    full: VecDeque<ProfileId>,
    partial: VecDeque<ProfileId>,
    /// Every queued profile once, with whether its pass is full. A profile
    /// upgraded to full while queued keeps its `partial` entry too: a
    /// queued profile runs once, from whichever of its entries is popped
    /// first, and an entry that finds it not queued is skipped.
    queued: HashMap<ProfileId, bool>,
}

impl Queue {
    fn pop(&mut self) -> Option<CompactionTask> {
        loop {
            let profile = self.full.pop_front().or_else(|| self.partial.pop_front())?;
            if let Some(full) = self.queued.remove(&profile) {
                return Some(CompactionTask { profile, full });
            }
        }
    }
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
            queue: Mutex::new(Queue::default()),
            handler: Box::new(handler),
            scheduled: Counter::new(),
            executed: Counter::new(),
            deduplicated: Counter::new(),
        }
    }

    /// Enqueue a task. A profile already queued is not queued twice; if the
    /// new request wants a full pass, the queued one is upgraded and moves
    /// to the full queue.
    pub fn schedule(&self, task: CompactionTask) {
        let mut guard = self.queue.lock();
        let q = &mut *guard;
        if let Some(full) = q.queued.get_mut(&task.profile) {
            self.deduplicated.inc();
            if task.full && !*full {
                *full = true;
                q.full.push_back(task.profile);
            }
            return;
        }
        q.queued.insert(task.profile, task.full);
        if task.full {
            q.full.push_back(task.profile);
        } else {
            q.partial.push_back(task.profile);
        }
        self.scheduled.inc();
    }

    /// Pending queue depth.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.queue.lock().queued.len()
    }

    /// Execute up to `budget` pending tasks on the calling thread. Returns
    /// tasks run.
    pub fn run_pending(&self, budget: usize) -> usize {
        let mut run = 0;
        while run < budget {
            let Some(task) = self.queue.lock().pop() else {
                break;
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
        assert!(tasks[0].full, "the full pass runs first");
        assert_eq!(tasks[0].profile, pid(2));
    }

    #[test]
    fn full_passes_run_before_the_partial_backlog() {
        let ran = Arc::new(Mutex::new(Vec::new()));
        let ran2 = Arc::clone(&ran);
        let s = CompactionScheduler::new(move |t: CompactionTask| ran2.lock().push(t.profile));
        for n in 0..4 {
            s.schedule(CompactionTask {
                profile: pid(n),
                full: false,
            });
        }
        // Upgraded while queued: it leaves the partial backlog.
        s.schedule(CompactionTask {
            profile: pid(2),
            full: true,
        });
        s.schedule(CompactionTask {
            profile: pid(9),
            full: true,
        });
        assert_eq!(s.pending(), 5);
        assert_eq!(s.run_pending(2), 2);
        assert_eq!(*ran.lock(), vec![pid(2), pid(9)]);
        // Queued again after its run: one run, from the partial backlog.
        s.schedule(CompactionTask {
            profile: pid(2),
            full: false,
        });
        assert_eq!(s.pending(), 4);
        assert_eq!(s.run_pending(10), 4);
        assert_eq!(
            *ran.lock(),
            vec![pid(2), pid(9), pid(0), pid(1), pid(2), pid(3)]
        );
        assert_eq!(s.executed.get(), 6);
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
