//! Thread-safe counter cells.
//!
//! The engine's bookkeeping (statistics, WAL offsets, fault countdowns)
//! historically lived in `Cell`s so `&self` paths could update them while
//! disjoint `&mut` borrows were live. The concurrency subsystem
//! (`crate::mvcc`, `crate::session`) shares one [`crate::Database`]
//! across threads, so these cells are now thin atomic wrappers keeping
//! the `get`/`set` call shape the engine was written against. All loads
//! and stores are `Relaxed`: each cell is an independent monotonic
//! counter or flag, never used to publish other memory — cross-thread
//! ordering of *data* is provided by the `RwLock`/`Mutex` that guards
//! the `Database` itself.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

/// A `Cell<u64>` replacement backed by an `AtomicU64`.
#[derive(Debug, Default)]
pub(crate) struct Counter(AtomicU64);

impl Counter {
    pub fn new(v: u64) -> Self {
        Counter(AtomicU64::new(v))
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, by: u64) -> u64 {
        self.0.fetch_add(by, Ordering::Relaxed) + by
    }

    /// Subtract `by` in one atomic step, stopping at zero.
    #[inline]
    pub fn sub_saturating(&self, by: u64) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(by))
            });
    }
}

/// A `Cell<i64>` replacement backed by an `AtomicI64`.
#[derive(Debug, Default)]
pub(crate) struct IdCell(AtomicI64);

impl IdCell {
    pub fn new(v: i64) -> Self {
        IdCell(AtomicI64::new(v))
    }

    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }

    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }
}

/// A `Cell<bool>` replacement backed by an `AtomicBool`.
#[derive(Debug, Default)]
pub(crate) struct FlagCell(AtomicBool);

impl FlagCell {
    pub fn new(v: bool) -> Self {
        FlagCell(AtomicBool::new(v))
    }

    #[inline]
    pub fn get(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }

    #[inline]
    pub fn set(&self, v: bool) {
        self.0.store(v, Ordering::Relaxed);
    }
}
