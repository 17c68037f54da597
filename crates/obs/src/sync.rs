//! Poison-recovering lock helper shared by the registry and the exporter.
//!
//! Poisoning only means another thread panicked while holding the guard; every
//! critical section in this crate leaves its data consistent at every step (one
//! map insert or increment, one whole line written, one error slot set), so the
//! protected state is still usable — and a recorder that panics on a poisoned
//! lock would turn one failed thread into a failed run.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Acquire a mutex guard, recovering from poisoning instead of panicking.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}
