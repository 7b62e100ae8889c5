//! The atomic/thread shim: the `std::sync::atomic`, `std::thread` and
//! `std::hint::spin_loop` surface that production protocol code
//! (sim-core's `ring.rs` / `exec.rs`) imports instead of std.
//!
//! Two personalities, selected at compile time:
//!
//! * **`sched` off** (default; all release builds): every item is a
//!   verbatim `pub use` of the std original. Zero cost by
//!   construction — dqos-sim-core proves it with a compile-time
//!   `&tsync::AtomicU64 -> &std::sync::atomic::AtomicU64` identity
//!   coercion that only type-checks if the alias is exact.
//!
//! * **`sched` on**: each type wraps the std atomic plus a lazily
//!   assigned variable id, and every operation first consults the
//!   controlled scheduler ([`crate::sched`]). Threads registered with
//!   an active exploration treat each operation as a schedule point
//!   (serialized, explored, race-checked); unregistered threads fall
//!   through to the plain std operation, so unrelated tests in the
//!   same process are unaffected.
//!
//! The named constructors ([`named_u64`] etc.) attach a static label
//! used for mutation targeting ("demote the `ring.tail` store to
//! Relaxed") and race reports; with `sched` off they compile to the
//! plain constructor.

#[cfg(not(feature = "sched"))]
pub use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};

#[cfg(not(feature = "sched"))]
pub use std::thread::{scope, spawn, yield_now, JoinHandle, Scope, ScopedJoinHandle};

#[cfg(not(feature = "sched"))]
pub use std::hint::spin_loop;

/// A labelled `AtomicU64` (label only exists under `sched`).
#[cfg(not(feature = "sched"))]
#[inline(always)]
pub fn named_u64(_name: &'static str, v: u64) -> AtomicU64 {
    AtomicU64::new(v)
}

/// A labelled `AtomicBool` (label only exists under `sched`).
#[cfg(not(feature = "sched"))]
#[inline(always)]
pub fn named_bool(_name: &'static str, v: bool) -> AtomicBool {
    AtomicBool::new(v)
}

/// A labelled `AtomicUsize` (label only exists under `sched`).
#[cfg(not(feature = "sched"))]
#[inline(always)]
pub fn named_usize(_name: &'static str, v: usize) -> AtomicUsize {
    AtomicUsize::new(v)
}

#[cfg(feature = "sched")]
pub use controlled::{
    fence, named_bool, named_u64, named_usize, scope, spawn, spin_loop, yield_now, AtomicBool,
    AtomicU64, AtomicUsize, JoinHandle, Scope, ScopedJoinHandle,
};

#[cfg(feature = "sched")]
pub use std::sync::atomic::Ordering;

#[cfg(feature = "sched")]
mod controlled {
    use crate::sched::{self, OpKind, VarMeta};
    use std::sync::atomic::Ordering;

    macro_rules! controlled_atomic {
        ($name:ident, $std:ty, $prim:ty) => {
            /// Scheduler-aware atomic. Same API subset as the std
            /// type; managed threads turn every call into a schedule
            /// point, unmanaged threads get the plain std behaviour.
            #[derive(Debug)]
            pub struct $name {
                cell: $std,
                meta: VarMeta,
            }

            impl $name {
                pub const fn new(v: $prim) -> Self {
                    Self { cell: <$std>::new(v), meta: VarMeta::unnamed() }
                }

                const fn named(name: &'static str, v: $prim) -> Self {
                    Self { cell: <$std>::new(v), meta: VarMeta::named(name) }
                }

                pub fn load(&self, order: Ordering) -> $prim {
                    if sched::schedule_point(&self.meta, OpKind::Load, order) {
                        // Physical memory is sequentially consistent
                        // under the model; the declared `order` is what
                        // the vector-clock race detector reasons about.
                        self.cell.load(Ordering::SeqCst)
                    } else {
                        self.cell.load(order)
                    }
                }

                pub fn store(&self, v: $prim, order: Ordering) {
                    if sched::schedule_point(&self.meta, OpKind::Store, order) {
                        self.cell.store(v, Ordering::SeqCst);
                    } else {
                        self.cell.store(v, order);
                    }
                }

                pub fn swap(&self, v: $prim, order: Ordering) -> $prim {
                    if sched::schedule_point(&self.meta, OpKind::Rmw, order) {
                        self.cell.swap(v, Ordering::SeqCst)
                    } else {
                        self.cell.swap(v, order)
                    }
                }

                pub fn compare_exchange(
                    &self,
                    current: $prim,
                    new: $prim,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$prim, $prim> {
                    if sched::schedule_point(&self.meta, OpKind::Rmw, success) {
                        self.cell.compare_exchange(
                            current,
                            new,
                            Ordering::SeqCst,
                            Ordering::SeqCst,
                        )
                    } else {
                        self.cell.compare_exchange(current, new, success, failure)
                    }
                }
            }
        };
    }

    controlled_atomic!(AtomicU64, std::sync::atomic::AtomicU64, u64);
    controlled_atomic!(AtomicUsize, std::sync::atomic::AtomicUsize, usize);
    controlled_atomic!(AtomicBool, std::sync::atomic::AtomicBool, bool);

    macro_rules! fetch_ops {
        ($name:ident, $prim:ty) => {
            impl $name {
                pub fn fetch_add(&self, v: $prim, order: Ordering) -> $prim {
                    if sched::schedule_point(&self.meta, OpKind::Rmw, order) {
                        self.cell.fetch_add(v, Ordering::SeqCst)
                    } else {
                        self.cell.fetch_add(v, order)
                    }
                }

                pub fn fetch_sub(&self, v: $prim, order: Ordering) -> $prim {
                    if sched::schedule_point(&self.meta, OpKind::Rmw, order) {
                        self.cell.fetch_sub(v, Ordering::SeqCst)
                    } else {
                        self.cell.fetch_sub(v, order)
                    }
                }
            }
        };
    }

    fetch_ops!(AtomicU64, u64);
    fetch_ops!(AtomicUsize, usize);

    pub fn named_u64(name: &'static str, v: u64) -> AtomicU64 {
        AtomicU64::named(name, v)
    }

    pub fn named_usize(name: &'static str, v: usize) -> AtomicUsize {
        AtomicUsize::named(name, v)
    }

    pub fn named_bool(name: &'static str, v: bool) -> AtomicBool {
        AtomicBool::named(name, v)
    }

    /// Scheduler-aware memory fence.
    pub fn fence(order: Ordering) {
        if !sched::fence_point(order) {
            std::sync::atomic::fence(order);
        }
    }

    /// Scheduler-aware `yield_now`: under exploration, parks the
    /// thread until some other thread performs a store (the only way a
    /// spin-wait can make progress), which both bounds the schedule
    /// space of spin loops and powers livelock detection.
    pub fn yield_now() {
        if !sched::yield_point() {
            std::thread::yield_now();
        }
    }

    /// Scheduler-aware `std::hint::spin_loop`: under exploration it is
    /// the same yield schedule point as [`yield_now`], so a spin-wait
    /// parks under yield quiescence exactly like a yielding one (a
    /// spin hint would otherwise be invisible to the scheduler and the
    /// loop would run unbounded schedules).
    pub fn spin_loop() {
        if !sched::yield_point() {
            std::hint::spin_loop();
        }
    }

    /// Scheduler-aware scoped threads, mirroring `std::thread::scope`.
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
        // Managed children spawned but not yet join()ed. std's scope
        // joins them implicitly on exit *outside* the scheduler, which
        // would park the parent without a schedule point; the wrapper
        // issues the managed join points first.
        unjoined: std::sync::Mutex<Vec<usize>>,
    }

    pub struct ScopedJoinHandle<'scope, T> {
        inner: std::thread::ScopedJoinHandle<'scope, T>,
        tid: Option<usize>,
    }

    pub fn scope<'env, F, T>(f: F) -> T
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> T,
    {
        std::thread::scope(|s| {
            let wrapper = Scope { inner: s, unjoined: std::sync::Mutex::new(Vec::new()) };
            let out = f(&wrapper);
            let pending = std::mem::take(
                &mut *wrapper.unjoined.lock().unwrap_or_else(|e| e.into_inner()),
            );
            for tid in pending {
                sched::join_point(tid);
            }
            out
        })
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce() -> T + Send + 'scope,
            T: Send + 'scope,
        {
            match sched::spawn_begin() {
                Some((rt, tid)) => {
                    let child_rt = rt.clone();
                    let inner = self.inner.spawn(move || {
                        let _guard = sched::ChildGuard::enter(child_rt, tid);
                        f()
                    });
                    sched::spawn_wait_started(&rt, tid);
                    self.unjoined.lock().unwrap_or_else(|e| e.into_inner()).push(tid);
                    ScopedJoinHandle { inner, tid: Some(tid) }
                }
                None => ScopedJoinHandle { inner: self.inner.spawn(f), tid: None },
            }
        }
    }

    impl<T> ScopedJoinHandle<'_, T> {
        pub fn join(self) -> std::thread::Result<T> {
            // The scope wrapper re-issues a join point for this tid on
            // exit; joining a finished thread twice is idempotent.
            if let Some(tid) = self.tid {
                sched::join_point(tid);
            }
            self.inner.join()
        }

        pub fn is_finished(&self) -> bool {
            self.inner.is_finished()
        }
    }

    /// Scheduler-aware `std::thread::spawn` analogue.
    pub struct JoinHandle<T> {
        inner: std::thread::JoinHandle<T>,
        tid: Option<usize>,
    }

    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        match sched::spawn_begin() {
            Some((rt, tid)) => {
                let child_rt = rt.clone();
                let inner = std::thread::spawn(move || {
                    let _guard = sched::ChildGuard::enter(child_rt, tid);
                    f()
                });
                sched::spawn_wait_started(&rt, tid);
                JoinHandle { inner, tid: Some(tid) }
            }
            None => JoinHandle { inner: std::thread::spawn(f), tid: None },
        }
    }

    impl<T> JoinHandle<T> {
        pub fn join(self) -> std::thread::Result<T> {
            if let Some(tid) = self.tid {
                sched::join_point(tid);
            }
            self.inner.join()
        }

        pub fn is_finished(&self) -> bool {
            self.inner.is_finished()
        }
    }
}
