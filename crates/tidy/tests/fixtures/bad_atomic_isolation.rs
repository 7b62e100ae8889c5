//! Fixture: a declared hot-path module wiring its cursors straight to
//! `std::sync::atomic`, spawning raw threads and spinning on the raw
//! hint. All are invisible to the systematic concurrency checker, which
//! can only schedule operations that go through the `tsync` shim.
// tidy: hot-path

use std::sync::atomic::{AtomicU64, Ordering::SeqCst};

pub struct Cursor {
    pub head: AtomicU64,
}

pub fn publish(c: &Cursor, v: u64) {
    c.head.store(v, SeqCst);
}

pub fn pump(c: &Cursor) {
    std::thread::scope(|s| {
        s.spawn(|| publish(c, 1));
        while c.head.load(SeqCst) == 0 {
            std::hint::spin_loop();
            std::thread::yield_now();
        }
    });
}
