//! The host-speed yardstick: a small, frozen discrete-event kernel timed
//! next to every sample, so the end-to-end metrics can be stated at one
//! fixed host speed.
//!
//! The shared 2-vCPU VMs this benchmark was written on (2.0 GHz Xeon)
//! change speed by up to 2× for seconds to minutes at a time: other
//! tenants contend for the core's caches and predictors, while no steal
//! time is reported and a clock-polling loop sees no gaps. Every
//! event-driven workload slows with it, so a 30-s run's median moves with
//! whatever the neighbours happened to do. The yardstick has the
//! simulator's shape — a binary-heap calendar of a few thousand pending
//! events, a data-dependent eight-way dispatch per event and random reads
//! and writes over 1 MiB of state — and on those VMs tracked the simulator's speed from sample to sample
//! (correlation about 0.75) and from run to run, while a pure arithmetic
//! loop or a pointer chase tracked it far less.
//!
//! It calls nothing in the repository's crates, so a change to the
//! program under test cannot change the yardstick. Its result is
//! checked, so the compiler cannot drop any of its work.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Yardstick ns per event that the normalised metrics are stated at: the
/// kernel's speed on a quiet 2.0 GHz Xeon core.
pub const NOMINAL_NS_PER_EVENT: f64 = 120.0;

/// Events per measurement (about 20 ms on a quiet host).
const EVENTS: usize = 150_000;

/// State words (1 MiB) and pending events of the kernel.
const STATE_WORDS: usize = 1 << 17;
const PENDING: u32 = 4096;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// Run `events` events over `state` from a fresh calendar; returns a
/// checksum of everything the events computed.
#[inline(never)]
fn run(state: &mut [u64], events: usize) -> u64 {
    let mask = state.len() as u64 - 1;
    let mut calendar: BinaryHeap<Reverse<(u64, u32)>> =
        BinaryHeap::with_capacity(PENDING as usize + 1);
    let mut s = 0x9E37_79B9_7F4A_7C15;
    for node in 0..PENDING {
        calendar.push(Reverse((xorshift(&mut s) >> 40, node)));
    }
    let mut acc = 0u64;
    for _ in 0..events {
        let Some(Reverse((t, node))) = calendar.pop() else {
            break;
        };
        let n = u64::from(node);
        let h = (n.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17) & mask;
        let v = state[h as usize];
        let (dt, next) = match (v ^ t) & 7 {
            0 => (3 + (v & 15), n.wrapping_add(1)),
            1 => (7, n ^ (v >> 3)),
            2 => {
                state[h as usize] = v.wrapping_add(t);
                (11 + (t & 7), n.wrapping_mul(3))
            }
            3 => (5 + (v >> 60), n.rotate_left(7)),
            4 => {
                let w = state[((h + 64) & mask) as usize];
                (13 + (w & 3), n ^ w)
            }
            5 => {
                state[h as usize] = v ^ (t << 1);
                (2, n.wrapping_add(v))
            }
            6 => (17, n.wrapping_sub(t)),
            _ => {
                acc = acc.wrapping_add(v);
                (9 + (acc & 31), n ^ acc)
            }
        };
        calendar.push(Reverse((t + dt, (next & 0x3_FFFF) as u32)));
    }
    acc ^ t_sum(&calendar)
}

fn t_sum(calendar: &BinaryHeap<Reverse<(u64, u32)>>) -> u64 {
    calendar
        .iter()
        .fold(0u64, |a, Reverse((t, n))| a.wrapping_add(t ^ u64::from(*n)))
}

/// One copy of the kernel's state; each measurement starts from the same
/// state, so every measurement does the same work.
struct Lane {
    initial: Vec<u64>,
    state: Vec<u64>,
    checksum: u64,
}

impl Lane {
    fn new() -> Lane {
        let mut s = 1u64;
        let initial: Vec<u64> = (0..STATE_WORDS).map(|_| xorshift(&mut s)).collect();
        let mut state = initial.clone();
        let checksum = run(&mut state, EVENTS);
        Lane {
            initial,
            state,
            checksum,
        }
    }

    fn ns_per_event(&mut self) -> f64 {
        self.state.copy_from_slice(&self.initial);
        let t = Instant::now();
        let sum = run(black_box(&mut self.state), black_box(EVENTS));
        let ns = t.elapsed().as_secs_f64() * 1e9 / EVENTS as f64;
        assert_eq!(sum, self.checksum, "the yardstick must repeat its work");
        ns
    }
}

/// The yardstick on as many threads as the workload runs, so a 2-worker
/// run is measured against both cores it uses.
pub struct Yardstick {
    lanes: Vec<Lane>,
}

impl Yardstick {
    pub fn new(threads: usize) -> Yardstick {
        Yardstick {
            lanes: (0..threads.max(1)).map(|_| Lane::new()).collect(),
        }
    }

    /// Host ns per yardstick event, now: the mean over the lanes, run
    /// side by side.
    pub fn ns_per_event(&mut self) -> f64 {
        let total: f64 = match self.lanes.as_mut_slice() {
            [one] => one.ns_per_event(),
            lanes => std::thread::scope(|s| {
                let running: Vec<_> = lanes
                    .iter_mut()
                    .map(|l| s.spawn(move || l.ns_per_event()))
                    .collect();
                running
                    .into_iter()
                    .map(|h| h.join().expect("yardstick lane"))
                    .sum()
            }),
        };
        total / self.lanes.len() as f64
    }
}

/// How much slower than nominal the host ran, from the yardstick
/// measured just before and just after a sample.
pub fn slowdown(before_ns: f64, after_ns: f64) -> f64 {
    (before_ns + after_ns) / 2.0 / NOMINAL_NS_PER_EVENT
}

/// How strongly a kind of workload feels a slowdown of the yardstick: it
/// slows by `slowdown^sensitivity`. Measured on a loaded host over three
/// sets of ten seeds per workload, as the slope of the log of a run's
/// median throughput against the log of its median slowdown: 0.74–1.36 on
/// the simulator workloads, whose normalised spread across seeds was
/// smallest at or near 1; on dqos-d 0.42–0.66 sample by sample within its
/// runs (correlation about 0.85) and 0.52–0.53 across runs.
pub const SIM_SENSITIVITY: f64 = 1.0;
pub const DQOSD_SENSITIVITY: f64 = 0.5;

/// How much a workload of `sensitivity` slows when the yardstick slows
/// by `slowdown`.
pub fn workload_slowdown(slowdown: f64, sensitivity: f64) -> f64 {
    slowdown.powf(sensitivity)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic_and_its_work_is_checked() {
        let mut a = vec![5u64; 1 << 10];
        let mut b = a.clone();
        assert_eq!(run(&mut a, 10_000), run(&mut b, 10_000));
        assert_eq!(a, b);
        for threads in [1, 2] {
            let mut y = Yardstick::new(threads);
            assert!(y.ns_per_event() > 0.0);
            assert!(y.ns_per_event() > 0.0);
        }
    }

    #[test]
    fn slowdown_is_the_mean_of_both_sides_over_nominal() {
        assert_eq!(slowdown(120.0, 120.0), 1.0);
        assert_eq!(slowdown(180.0, 300.0), 2.0);
        assert_eq!(workload_slowdown(1.0, DQOSD_SENSITIVITY), 1.0);
        assert_eq!(workload_slowdown(1.5, SIM_SENSITIVITY), 1.5);
        assert_eq!(workload_slowdown(4.0, DQOSD_SENSITIVITY), 2.0);
    }
}
