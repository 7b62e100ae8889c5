//! Differential tests: the bucketed calendar against a binary-heap
//! reference, on large mixed schedules.
//!
//! These are the acceptance tests for the calendar: pop order must be
//! **bit-identical** — same `(time, payload)` sequence — for any
//! interleaving of schedules and pops, across wheel geometries that force
//! the overflow, migration and ring-wrap paths.

use dqos_sim_core::{EventQueue, SimRng, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The reference calendar: a min-heap on `(time, seq, payload)` with a
/// monotonically increasing `seq`, so same-tick events pop in schedule
/// order — the contract the bucketed calendar must reproduce.
#[derive(Default)]
struct RefHeap {
    heap: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
    seq: u64,
}

impl RefHeap {
    fn schedule(&mut self, at: SimTime, payload: u64) {
        self.heap.push(Reverse((at, self.seq, payload)));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        self.heap.pop().map(|Reverse((t, _, p))| (t, p))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((t, _, _))| *t)
    }
}

/// Drive both calendars through the same mixed schedule/pop workload and
/// assert identical pop streams.
fn differential(seed: u64, shift: u32, n_buckets: usize, total_events: u64) {
    let mut rng = SimRng::new(seed);
    let mut fast: EventQueue<u64> = EventQueue::with_geometry(shift, n_buckets);
    let mut oracle = RefHeap::default();
    let mut scheduled = 0u64;
    let mut pending = 0u64;
    let mut popped = 0u64;

    while popped < total_events {
        let do_schedule = scheduled < total_events
            && (pending == 0 || (pending < 8192 && rng.chance(0.52)));
        if do_schedule {
            // Mixed horizons: mostly near events, a tail of far events
            // (overflow), and a slug of exact ties.
            let delta = match rng.index(10) {
                0 => 0,                              // same-tick tie
                1..=6 => rng.range_u64(1, 5_000),    // near: inside wheel
                7 | 8 => rng.range_u64(5_000, 300_000), // mid: straddles horizon
                _ => rng.range_u64(300_000, 50_000_000), // far: deep overflow
            };
            let at = SimTime::from_ns(fast.now().as_ns() + delta);
            fast.schedule(at, scheduled);
            oracle.schedule(at, scheduled);
            scheduled += 1;
            pending += 1;
        } else {
            let a = fast.pop().expect("fast queue empty while pending > 0");
            let b = oracle.pop().expect("oracle queue empty while pending > 0");
            assert_eq!(
                (a.time, a.payload),
                b,
                "pop #{popped} diverged (seed {seed}, shift {shift}, buckets {n_buckets})"
            );
            assert_eq!(a.time, fast.now());
            pending -= 1;
            popped += 1;
        }
        assert_eq!(fast.len(), oracle.heap.len(), "len diverged after {popped} pops");
        assert_eq!(
            fast.peek_time(),
            oracle.peek_time(),
            "peek_time diverged after {popped} pops (seed {seed}, shift {shift}, buckets {n_buckets})"
        );
    }
    // Both calendars drain to empty together.
    while let Some(b) = oracle.pop() {
        let a = fast.pop().expect("fast queue drained before the reference");
        assert_eq!((a.time, a.payload), b, "drain diverged");
    }
    assert!(fast.pop().is_none() && fast.is_empty(), "fast queue outlived the reference");
}

/// The headline differential: one million events through the default
/// geometry, bit-identical (time, seq) pop order.
#[test]
fn one_million_events_match_reference_heap() {
    differential(0xD05_CA1E, 4, 4096, 1_000_000);
}

/// Small wheels force heavy overflow traffic and ring wrap-around.
#[test]
fn stress_geometries_match_reference_heap() {
    for (seed, shift, buckets) in
        [(1u64, 0u32, 64usize), (2, 0, 128), (3, 6, 64), (4, 10, 256), (5, 2, 4096), (2024, 2, 64)]
    {
        differential(seed, shift, buckets, 60_000);
    }
}

/// Scheduling behind the clock is a causality bug and must panic loudly
/// in debug builds.
#[test]
#[should_panic(expected = "scheduling into the past")]
#[cfg(debug_assertions)]
fn past_scheduling_panics() {
    let mut q: EventQueue<()> = EventQueue::new();
    q.schedule(SimTime::from_us(10), ());
    q.pop();
    q.schedule(SimTime::from_us(9), ());
}
