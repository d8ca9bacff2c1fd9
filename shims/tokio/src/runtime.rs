//! Runtime construction. The shim has a single flavor — a global pool of
//! workers that also drive epoll and the timers, plus on-thread
//! `block_on` — so the builder only records intent.

use std::future::Future;
use std::io;

/// Builds a [`Runtime`].
pub struct Builder {
    _private: (),
}

impl Builder {
    /// Single-threaded runtime (shim: same global pool).
    pub fn new_current_thread() -> Builder {
        Builder { _private: () }
    }

    /// Multi-threaded runtime (shim: same global pool).
    pub fn new_multi_thread() -> Builder {
        Builder { _private: () }
    }

    /// Enables all drivers (always on in the shim).
    pub fn enable_all(&mut self) -> &mut Self {
        self
    }

    /// Number of worker threads (accepted and ignored; the pool is global
    /// and sized to the cores).
    pub fn worker_threads(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Finalizes the runtime.
    pub fn build(&mut self) -> io::Result<Runtime> {
        crate::exec::ensure_workers();
        Ok(Runtime { _private: () })
    }
}

/// Handle to the shim runtime.
pub struct Runtime {
    _private: (),
}

impl Runtime {
    /// Creates a runtime with default settings.
    pub fn new() -> io::Result<Runtime> {
        Builder::new_multi_thread().build()
    }

    /// Runs a future to completion on the current thread.
    pub fn block_on<F: Future>(&self, f: F) -> F::Output {
        crate::exec::block_on(f)
    }
}
