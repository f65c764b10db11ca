//! Modeled `Mutex`/`Condvar`/`OnceLock` with std-compatible signatures.
//!
//! Poisoning is not modeled (a panicking execution aborts the whole
//! schedule and is reported as a violation), but the std error types
//! are reused so `.lock().expect(...)`-style call sites compile
//! unchanged. `WaitTimeoutResult` is our own struct because std's has
//! no public constructor; call sites only ever ask `timed_out()`.

use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64 as RealU64, Ordering::Relaxed as RealRelaxed};
use std::sync::{LockResult, TryLockError, TryLockResult};
use std::time::Duration;

use super::engine;

/// Lazily-registered engine handle (mutex or condvar), valid for one
/// execution epoch — same scheme as the atomics' `LazyLoc`.
struct LazyHandle {
    epoch: RealU64,
    id: RealU64,
}

impl LazyHandle {
    const fn new() -> LazyHandle {
        LazyHandle { epoch: RealU64::new(0), id: RealU64::new(0) }
    }

    fn get(&self, register: fn() -> usize) -> usize {
        let (ep, _shared) = engine::current_epoch_and_ctx();
        if self.epoch.load(RealRelaxed) == ep {
            return self.id.load(RealRelaxed) as usize;
        }
        let id = register();
        self.id.store(id as u64, RealRelaxed);
        self.epoch.store(ep, RealRelaxed);
        id
    }
}

pub struct Mutex<T: ?Sized> {
    handle: LazyHandle,
    data: UnsafeCell<T>,
}

// SAFETY: the model engine guarantees at most one live guard per mutex
// (lock blocks until the owner unlocks), so shared access to the cell
// is exclusive exactly as with std::sync::Mutex.
unsafe impl<T: ?Sized + Send> Send for Mutex<T> {}
// SAFETY: as above — the engine serializes guard lifetimes.
unsafe impl<T: ?Sized + Send> Sync for Mutex<T> {}

impl<T> Mutex<T> {
    pub const fn new(t: T) -> Mutex<T> {
        Mutex { handle: LazyHandle::new(), data: UnsafeCell::new(t) }
    }

    pub fn into_inner(self) -> LockResult<T> {
        Ok(self.data.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    fn mid(&self) -> usize {
        self.handle.get(engine::register_mutex)
    }

    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        engine::mutex_lock(self.mid());
        Ok(MutexGuard { lock: self })
    }

    pub fn try_lock(&self) -> TryLockResult<MutexGuard<'_, T>> {
        if engine::mutex_try_lock(self.mid()) {
            Ok(MutexGuard { lock: self })
        } else {
            Err(TryLockError::WouldBlock)
        }
    }

    pub fn get_mut(&mut self) -> LockResult<&mut T> {
        Ok(self.data.get_mut())
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Mutex<T> {
        Mutex::new(T::default())
    }
}

impl<T: ?Sized> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mutex").finish_non_exhaustive()
    }
}

pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        // SAFETY: the engine grants this guard exclusive ownership of
        // the mutex until Drop runs, so no other reference exists.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: exclusive ownership, as in `deref`.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        engine::mutex_unlock(self.lock.mid());
    }
}

/// Our own `WaitTimeoutResult` (std's cannot be constructed outside
/// std); API-compatible for the only thing call sites do with it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

pub struct Condvar {
    handle: LazyHandle,
}

impl Condvar {
    pub const fn new() -> Condvar {
        Condvar { handle: LazyHandle::new() }
    }

    fn cvid(&self) -> usize {
        self.handle.get(engine::register_condvar)
    }

    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        let lock = guard.lock;
        let cvid = self.cvid();
        let mid = lock.mid();
        std::mem::forget(guard); // the engine releases the mutex itself
        engine::cond_wait(cvid, mid, false);
        Ok(MutexGuard { lock })
    }

    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        _dur: Duration,
    ) -> LockResult<(MutexGuard<'a, T>, WaitTimeoutResult)> {
        let lock = guard.lock;
        let cvid = self.cvid();
        let mid = lock.mid();
        std::mem::forget(guard);
        let timed_out = engine::cond_wait(cvid, mid, true);
        Ok((MutexGuard { lock }, WaitTimeoutResult(timed_out)))
    }

    pub fn wait_while<'a, T, F>(
        &self,
        mut guard: MutexGuard<'a, T>,
        mut condition: F,
    ) -> LockResult<MutexGuard<'a, T>>
    where
        F: FnMut(&mut T) -> bool,
    {
        while condition(&mut guard) {
            guard = self.wait(guard)?;
        }
        Ok(guard)
    }

    /// std's semantics: returns once `condition` is false, or after a
    /// timed-out wake with it still true (`timed_out()`). Wall-clock
    /// time does not exist in the model, so "timed out" means the
    /// engine's last-resort timed wake (counted in `timeout_wakes`).
    pub fn wait_timeout_while<'a, T, F>(
        &self,
        mut guard: MutexGuard<'a, T>,
        dur: Duration,
        mut condition: F,
    ) -> LockResult<(MutexGuard<'a, T>, WaitTimeoutResult)>
    where
        F: FnMut(&mut T) -> bool,
    {
        loop {
            if !condition(&mut guard) {
                return Ok((guard, WaitTimeoutResult(false)));
            }
            let (g, res) = self.wait_timeout(guard, dur)?;
            guard = g;
            if res.timed_out() {
                let still = condition(&mut guard);
                return Ok((guard, WaitTimeoutResult(still)));
            }
        }
    }

    pub fn notify_one(&self) {
        engine::cond_notify(self.cvid(), false);
    }

    pub fn notify_all(&self) {
        engine::cond_notify(self.cvid(), true);
    }
}

impl Default for Condvar {
    fn default() -> Condvar {
        Condvar::new()
    }
}

impl std::fmt::Debug for Condvar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Condvar").finish_non_exhaustive()
    }
}

const ONCE_EMPTY: usize = 0;
const ONCE_WRITING: usize = 1;
const ONCE_READY: usize = 2;

pub struct OnceLock<T> {
    state: super::atomic::AtomicUsize,
    value: UnsafeCell<Option<T>>,
}

// SAFETY: the READY state is published with Release and read with
// Acquire, and the value is written exactly once before that, so a
// reader observing READY sees a fully-initialized, never-again-mutated
// value — the same argument as std's OnceLock.
unsafe impl<T: Send> Send for OnceLock<T> {}
// SAFETY: as above.
unsafe impl<T: Send + Sync> Sync for OnceLock<T> {}

impl<T> OnceLock<T> {
    pub const fn new() -> OnceLock<T> {
        OnceLock { state: super::atomic::AtomicUsize::new(ONCE_EMPTY), value: UnsafeCell::new(None) }
    }

    pub fn get(&self) -> Option<&T> {
        use std::sync::atomic::Ordering;
        // ORDERING: Acquire pairs with the Release store in `set`; a
        // reader that sees READY also sees the value write.
        if self.state.load(Ordering::Acquire) == ONCE_READY {
            // SAFETY: READY implies the value was written (and is
            // never written again), per the Acquire/Release pairing.
            unsafe { (*self.value.get()).as_ref() }
        } else {
            None
        }
    }

    pub fn set(&self, value: T) -> Result<(), T> {
        use std::sync::atomic::Ordering;
        // ORDERING: Acquire on success so the (model-serialized) write
        // below is ordered after winning the claim; Relaxed on failure
        // because the loser publishes nothing.
        if self
            .state
            .compare_exchange(ONCE_EMPTY, ONCE_WRITING, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return Err(value);
        }
        // SAFETY: we won the EMPTY -> WRITING race, so we are the only
        // writer ever; no reader dereferences before READY.
        unsafe {
            *self.value.get() = Some(value);
        }
        // ORDERING: Release publishes the value write to Acquire
        // readers in `get`.
        self.state.store(ONCE_READY, Ordering::Release);
        Ok(())
    }

    pub fn get_or_init(&self, f: impl FnOnce() -> T) -> &T {
        if let Some(v) = self.get() {
            return v;
        }
        let _ = self.set(f());
        loop {
            if let Some(v) = self.get() {
                return v;
            }
            // Another thread is mid-write; let it finish.
            engine::yield_now();
        }
    }
}

impl<T> Default for OnceLock<T> {
    fn default() -> OnceLock<T> {
        OnceLock::new()
    }
}

impl<T> std::fmt::Debug for OnceLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OnceLock").finish_non_exhaustive()
    }
}
