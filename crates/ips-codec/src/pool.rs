//! Thread-local pooled scratch buffers for the encode hot path.
//!
//! Each encode needs scratch that does not outlive the call: the buffer a
//! message tree is written into (nested messages are written in place, so
//! one buffer per tree), the compressor's 64 KiB hash table, and the
//! compressed intermediate the frame encoder throws away (raw fallback) or
//! copies into the envelope. The steady state reuses them instead of
//! exercising the allocator on every flush and RPC.
//!
//! The pool is deliberately small and thread-local: no locks, no cross-thread
//! traffic, bounded retained memory. Buffers above a retention cap are
//! dropped rather than cached so one huge profile cannot pin memory forever.

use std::cell::{Cell, RefCell};

/// Maximum number of byte buffers retained per thread: an encode holds at
/// most a message buffer and a compressed intermediate at once, and an RPC
/// frame may encode a message inside another's encode.
const MAX_POOLED_BUFS: usize = 4;
/// Buffers whose capacity grew beyond this are dropped on return instead of
/// being retained (bounds per-thread retained memory).
const MAX_RETAINED_CAP: usize = 256 << 10;

thread_local! {
    static BUF_POOL: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
    static U32_TABLE: RefCell<Option<(Box<[u32]>, u32)>> = const { RefCell::new(None) };
    static BUF_REUSES: Cell<u64> = const { Cell::new(0) };
    static BUF_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static TABLE_REUSES: Cell<u64> = const { Cell::new(0) };
    static TABLE_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static TABLE_CLEARS: Cell<u64> = const { Cell::new(0) };
}

/// Per-thread pool counters, for tests and benchmarks that want to prove the
/// steady state stops allocating.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Byte buffers served from the pool.
    pub buf_reuses: u64,
    /// Byte buffers freshly allocated (pool empty).
    pub buf_allocs: u64,
    /// Compressor scratch tables served from the pool.
    pub table_reuses: u64,
    /// Compressor scratch tables freshly allocated.
    pub table_allocs: u64,
    /// Compressor scratch tables cleared for reuse (cursor wrap).
    pub table_clears: u64,
}

/// Snapshot this thread's pool counters.
#[must_use]
pub fn stats() -> PoolStats {
    PoolStats {
        buf_reuses: BUF_REUSES.with(Cell::get),
        buf_allocs: BUF_ALLOCS.with(Cell::get),
        table_reuses: TABLE_REUSES.with(Cell::get),
        table_allocs: TABLE_ALLOCS.with(Cell::get),
        table_clears: TABLE_CLEARS.with(Cell::get),
    }
}

/// Take an empty byte buffer from this thread's pool (or allocate one).
/// Return it with [`give_buf`] when done so the capacity is reused.
#[must_use]
pub fn take_buf() -> Vec<u8> {
    BUF_POOL.with(|p| {
        if let Some(buf) = p.borrow_mut().pop() {
            BUF_REUSES.with(|c| c.set(c.get() + 1));
            debug_assert!(buf.is_empty());
            buf
        } else {
            BUF_ALLOCS.with(|c| c.set(c.get() + 1));
            Vec::new()
        }
    })
}

/// Return a buffer to this thread's pool. Oversized or excess buffers are
/// dropped so retained memory stays bounded.
pub fn give_buf(mut buf: Vec<u8>) {
    if buf.capacity() > MAX_RETAINED_CAP {
        return;
    }
    buf.clear();
    BUF_POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.len() < MAX_POOLED_BUFS {
            pool.push(buf);
        }
    });
}

/// Run `f` with this thread's `len`-wide `u32` scratch table, zeroed when
/// first allocated, and the cursor kept beside it. The table is *not*
/// cleared between calls: the compressor, its sole intended user, stamps
/// entries with positions offset by the cursor, so entries of earlier calls
/// read as stale, and asks for a clear ([`clear_u32_table`]) only when the
/// cursor would wrap. `len` must be the same on every call from a given
/// thread (a mismatch falls back to reallocating).
pub fn with_u32_table<R>(len: usize, f: impl FnOnce(&mut [u32], &mut u32) -> R) -> R {
    U32_TABLE.with(|slot| {
        let (mut table, mut cursor) = match slot.borrow_mut().take() {
            Some((t, cursor)) if t.len() == len => {
                TABLE_REUSES.with(|c| c.set(c.get() + 1));
                (t, cursor)
            }
            _ => {
                TABLE_ALLOCS.with(|c| c.set(c.get() + 1));
                (vec![0u32; len].into_boxed_slice(), 0)
            }
        };
        let r = f(&mut table, &mut cursor);
        *slot.borrow_mut() = Some((table, cursor));
        r
    })
}

/// Zero a scratch table handed out by [`with_u32_table`].
pub fn clear_u32_table(table: &mut [u32]) {
    TABLE_CLEARS.with(|c| c.set(c.get() + 1));
    table.fill(0);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_reused() {
        let before = stats();
        let a = take_buf();
        give_buf(a);
        let b = take_buf();
        give_buf(b);
        let after = stats();
        assert!(
            after.buf_reuses > before.buf_reuses,
            "second take should hit the pool: {after:?}"
        );
    }

    #[test]
    fn oversized_buffers_are_dropped() {
        // Drain the pool so the oversized buffer would be next in line.
        let mut drained = Vec::new();
        loop {
            let b = take_buf();
            if b.capacity() == 0 {
                break;
            }
            drained.push(b);
        }
        let mut big = Vec::with_capacity(MAX_RETAINED_CAP + 1);
        big.push(1u8);
        give_buf(big);
        let next = take_buf();
        assert!(
            next.capacity() <= MAX_RETAINED_CAP,
            "oversized buffer must not be retained"
        );
        give_buf(next);
        for b in drained {
            give_buf(b);
        }
    }

    #[test]
    fn pool_depth_is_bounded() {
        let bufs: Vec<Vec<u8>> = (0..MAX_POOLED_BUFS + 4).map(|_| Vec::new()).collect();
        for b in bufs {
            give_buf(b);
        }
        let retained = BUF_POOL.with(|p| p.borrow().len());
        assert!(retained <= MAX_POOLED_BUFS);
    }

    #[test]
    fn u32_table_is_reused_and_reset() {
        with_u32_table(64, |t, cursor| {
            t[0] = 7;
            *cursor = 9;
        });
        let before = stats();
        with_u32_table(64, |t, cursor| {
            assert_eq!((t[0], *cursor), (7, 9), "the table is kept as left");
            clear_u32_table(t);
            assert!(t.iter().all(|&v| v == 0));
        });
        let after = stats();
        assert!(after.table_reuses > before.table_reuses);
        assert_eq!(after.table_clears, before.table_clears + 1);
    }

    #[test]
    fn u32_table_len_mismatch_reallocates() {
        with_u32_table(16, |t, _| assert_eq!(t.len(), 16));
        with_u32_table(32, |t, cursor| {
            assert_eq!(t.len(), 32);
            assert!(
                t.iter().all(|&v| v == 0) && *cursor == 0,
                "fresh tables start zeroed"
            );
        });
    }

    #[test]
    fn give_buf_clears_contents() {
        let mut b = take_buf();
        b.extend_from_slice(b"secret");
        give_buf(b);
        let b = take_buf();
        assert!(b.is_empty());
        give_buf(b);
    }
}
