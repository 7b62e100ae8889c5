//! Fixture: the idiomatic alternative — the same protocol written
//! against the `tsync` shim (a verbatim `std` re-export in plain
//! builds, the controlled scheduler under the `mcheck` feature), with
//! the one legitimate raw `std::thread` use justified.
// tidy: hot-path

use dqos_mcheck_rt::tsync::{
    named_u64, scope, spin_loop, yield_now, AtomicU64, Ordering::SeqCst,
};

pub struct Cursor {
    pub head: AtomicU64,
}

pub fn new_cursor() -> Cursor {
    Cursor { head: named_u64("fixture.head", 0) }
}

pub fn publish(c: &Cursor, v: u64) {
    c.head.store(v, SeqCst);
}

pub fn pump(c: &Cursor) {
    scope(|s| {
        s.spawn(|| publish(c, 1));
        while c.head.load(SeqCst) == 0 {
            spin_loop();
            yield_now();
        }
    });
}

pub fn dump() {
    // tidy: allow(atomic-isolation) -- diagnostics-only dump thread; never runs under the checker.
    std::thread::spawn(|| {}).join().ok();
}
