//! Minimal offline stand-in for `crossbeam`: scoped threads bridged onto
//! `std::thread::scope`. See `shims/README.md`.

#![forbid(unsafe_code)]

/// Scoped threads bridged onto `std::thread::scope`.
pub mod thread {
    /// Token passed to spawned closures. The real crossbeam passes a nested
    /// `&Scope` so threads can spawn siblings; every closure in this
    /// workspace ignores the argument, so a unit token suffices.
    #[derive(Debug, Clone, Copy)]
    pub struct ScopeHandle;

    /// Wrapper over `std::thread::Scope` mirroring crossbeam's spawn shape.
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawns a scoped thread; the closure receives a [`ScopeHandle`].
        pub fn spawn<F, T>(&self, f: F) -> std::thread::ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(ScopeHandle) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            self.inner.spawn(move || f(ScopeHandle))
        }
    }

    /// Runs `f` with a scope whose threads are joined before returning.
    /// Always returns `Ok`; a panicked child re-panics at join, matching the
    /// observable behaviour of `crossbeam::thread::scope(...).unwrap()`.
    pub fn scope<'env, F, R>(f: F) -> std::thread::Result<R>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        Ok(std::thread::scope(|s| f(&Scope { inner: s })))
    }
}
