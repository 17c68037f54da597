//! Poison-recovering lock helpers of the result stores.
//!
//! Poisoning only means another thread panicked while holding the guard; every
//! critical section in this crate leaves its data consistent at every await-free
//! step (whole-map inserts, whole-batch appends, single queue pops), so the
//! protected state is still usable — and a panic cascade here would turn one failed
//! shard into a failed campaign.

use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Acquire a read guard, recovering from poisoning instead of panicking.
pub(crate) fn read_lock<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Acquire a write guard, recovering from poisoning (see [`read_lock`]).
pub(crate) fn write_lock<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// Acquire a mutex guard, recovering from poisoning (see [`read_lock`]).
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}
