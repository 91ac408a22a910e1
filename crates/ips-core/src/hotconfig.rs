//! Live-reloadable configuration (§V-b).
//!
//! Machine-learning engineers iterate on compaction/truncation/shrink
//! parameters constantly; restarting a serving fleet for each change is a
//! non-starter. `HotConfig<T>` is a swap-on-write configuration cell:
//! readers grab a cheap `Arc` snapshot, writers swap in a validated
//! replacement, and every later snapshot sees it.

use std::sync::Arc;

use parking_lot::RwLock;

/// A hot-swappable configuration cell.
pub struct HotConfig<T> {
    current: RwLock<Arc<T>>,
}

impl<T> HotConfig<T> {
    #[must_use]
    pub fn new(initial: T) -> Self {
        Self {
            current: RwLock::new(Arc::new(initial)),
        }
    }

    /// Snapshot the current configuration. Cheap: one `Arc` clone.
    #[must_use]
    pub fn load(&self) -> Arc<T> {
        Arc::clone(&self.current.read())
    }

    /// Swap in a new configuration.
    pub fn store(&self, next: T) {
        *self.current.write() = Arc::new(next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_returns_current() {
        let c = HotConfig::new(42);
        assert_eq!(*c.load(), 42);
    }

    #[test]
    fn store_swaps_and_keeps_old_snapshots() {
        let c = HotConfig::new(1);
        let old = c.load();
        c.store(2);
        assert_eq!(*c.load(), 2);
        assert_eq!(*old, 1, "existing snapshots keep the old value");
    }

    #[test]
    fn concurrent_reload_while_reading() {
        let c = Arc::new(HotConfig::new(0u64));
        let writer = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || {
                for i in 1..=1_000 {
                    c.store(i);
                }
            })
        };
        let reader = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || {
                let mut last = 0;
                for _ in 0..1_000 {
                    let v = *c.load();
                    assert!(v >= last, "values must be monotonic");
                    last = v;
                }
            })
        };
        writer.join().unwrap();
        reader.join().unwrap();
        assert_eq!(*c.load(), 1_000);
    }
}
