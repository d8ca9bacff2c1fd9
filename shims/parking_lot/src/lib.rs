//! Offline shim for the subset of `parking_lot` this workspace uses.
//!
//! Backed by `std::sync` primitives with poison errors unwrapped (the real
//! `parking_lot` has no poisoning either; a panic while holding a lock
//! aborts the test run anyway, so unwrapping matches its semantics closely
//! enough for this codebase).

#![forbid(unsafe_code)]

use std::fmt;
use std::ops::{Deref, DerefMut};

/// A mutual exclusion primitive (non-poisoning `lock()` like parking_lot).
#[derive(Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

/// RAII guard returned by [`Mutex::lock`].
pub struct MutexGuard<'a, T: ?Sized> {
    guard: std::sync::MutexGuard<'a, T>,
    mutex: &'a Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a new mutex.
    pub const fn new(value: T) -> Self {
        Self(std::sync::Mutex::new(value))
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let guard = self.0.lock().unwrap_or_else(|e| e.into_inner());
        MutexGuard { guard, mutex: self }
    }

    /// Attempts to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let guard = match self.0.try_lock() {
            Ok(g) => g,
            Err(std::sync::TryLockError::Poisoned(e)) => e.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => return None,
        };
        Some(MutexGuard { guard, mutex: self })
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Mutex").finish_non_exhaustive()
    }
}

impl<'a, T: ?Sized> MutexGuard<'a, T> {
    /// The mutex this guard holds, so a caller handed the guard can
    /// release it and lock again later.
    pub fn mutex(s: &Self) -> &'a Mutex<T> {
        s.mutex
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// A reader-writer lock (non-poisoning `read()`/`write()`).
#[derive(Default)]
pub struct RwLock<T: ?Sized>(std::sync::RwLock<T>);

/// RAII shared-read guard returned by [`RwLock::read`].
pub struct RwLockReadGuard<'a, T: ?Sized>(std::sync::RwLockReadGuard<'a, T>);

/// RAII exclusive-write guard returned by [`RwLock::write`].
pub struct RwLockWriteGuard<'a, T: ?Sized>(std::sync::RwLockWriteGuard<'a, T>);

impl<T> RwLock<T> {
    /// Creates a new reader-writer lock.
    pub const fn new(value: T) -> Self {
        Self(std::sync::RwLock::new(value))
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires a shared read lock.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard(self.0.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Acquires an exclusive write lock.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard(self.0.write().unwrap_or_else(|e| e.into_inner()))
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RwLock").finish_non_exhaustive()
    }
}

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert!(m.try_lock().is_some());
        assert!(std::ptr::eq(MutexGuard::mutex(&m.lock()), &m));
    }

    #[test]
    fn rwlock_basic() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(*l.read(), vec![1, 2, 3]);
    }
}
