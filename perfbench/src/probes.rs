//! Layer probes: loops over one layer's public calls, fed inputs shaped
//! like a workload's, timed from outside.
//!
//! Each probe repeats its loop in batches until its time budget is
//! spent and reports nanoseconds per call (or per packet). The queue
//! probes time `FlatFifo`/`FlatTwoQueue`, the structures the switch and
//! NIC run, not the `FifoQueue`/`TwoQueue` oracles.

use dqos_core::{
    AdmissionController, Architecture, DeadlineMode, NodeAction, PktTok, Stamper, TrafficClass, Vc,
};
use dqos_endhost::{Nic, NicConfig};
use dqos_queues::{FlatFifo, FlatTwoQueue, SchedQueue};
use dqos_sim_core::{Bandwidth, EventQueue, SimDuration, SimRng, SimTime, SpscRing};
use dqos_switch::{Switch, SwitchConfig};
use dqos_topology::{ClosParams, FoldedClos, HostId, Port, Route};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Run `batch` until `budget` is spent (at least once); returns
/// nanoseconds per unit, where `batch` returns the units it did.
pub fn per_unit(budget: Duration, mut batch: impl FnMut() -> u64) -> f64 {
    let start = Instant::now();
    let mut units = 0u64;
    loop {
        units += batch();
        if start.elapsed() >= budget {
            break;
        }
    }
    start.elapsed().as_nanos() as f64 / units.max(1) as f64
}

/// `EventQueue` hold model: `population` pending events whose firing
/// offsets are uniform over twice `population × gap_ns`, the simulated
/// time one event stands for in the workload. One op is a pop plus the
/// schedule that replaces it.
pub fn event_queue(population: usize, gap_ns: u64, seed: u64, budget: Duration) -> f64 {
    let spread = (2 * population as u64 * gap_ns.max(1)).max(2);
    let mut rng = SimRng::new(seed);
    let offsets: Vec<u64> = (0..4096).map(|_| rng.range_u64(0, spread)).collect();
    let mut q: EventQueue<u32> = EventQueue::new();
    for i in 0..population {
        q.schedule(SimTime(offsets[i % offsets.len()]), i as u32);
    }
    let mut k = 0usize;
    per_unit(budget, || {
        for _ in 0..4096 {
            let ev = q.pop().expect("hold model keeps its population");
            k = (k + 1) & 4095;
            q.schedule(
                ev.time + SimDuration::from_ns(offsets[k]),
                black_box(ev.payload),
            );
        }
        4096
    })
}

/// Words in one packet-lane record (the netsim lane format).
const LANE_RECORD_WORDS: usize = 11;

/// `SpscRing`: 11-word records pushed by one thread and popped by
/// another; nanoseconds per record end to end.
pub fn spsc_ring(records: u64) -> f64 {
    let ring = SpscRing::new(1 << 16);
    let start = Instant::now();
    std::thread::scope(|s| {
        let producer = s.spawn(|| {
            let mut rec = [0u64; LANE_RECORD_WORDS];
            for i in 0..records {
                rec[0] = i;
                while !ring.push(&rec) {
                    std::hint::spin_loop();
                }
            }
        });
        let mut buf = Vec::with_capacity(LANE_RECORD_WORDS);
        let mut got = 0u64;
        while got < records {
            if ring.pop(&mut buf) {
                assert_eq!(
                    (buf.len(), buf[0]),
                    (LANE_RECORD_WORDS, got),
                    "ring reordered records"
                );
                got += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        producer.join().expect("ring producer panicked");
    });
    start.elapsed().as_nanos() as f64 / records.max(1) as f64
}

fn token(id: u64, deadline: u64, len: u32, out: u8, class: TrafficClass) -> PktTok {
    PktTok {
        id,
        deadline: SimTime(deadline),
        eligible: SimTime::ZERO,
        slot: id as u32,
        len,
        out: Port(out),
        hop: 0,
        vc: class.vc(),
        class,
    }
}

/// A deadline stream in which a share `late` of the tokens carry a
/// deadline smaller than their predecessor's (the arrivals that take the
/// two-queue system's take-over path).
fn deadline_stream(late: f64, seed: u64) -> Vec<PktTok> {
    let mut rng = SimRng::new(seed);
    let mut d = 1_000_000u64;
    (0..4096u64)
        .map(|i| {
            let len = rng.range_u64(64, 2048) as u32;
            d += len as u64;
            let deadline = if rng.chance(late) {
                d - rng.range_u64(1, 20_000).min(d)
            } else {
                d
            };
            token(i, deadline, len, 0, TrafficClass::Control)
        })
        .collect()
}

/// One structure at a steady occupancy of `depth` (8 KiB / 2 KiB MTU
/// buffers hold a few packets): enqueue the next token, dequeue the
/// candidate. One op is that pair.
fn queue_pairs<Q: SchedQueue<PktTok>>(
    mut q: Q,
    stream: &[PktTok],
    depth: usize,
    budget: Duration,
) -> f64 {
    let span = stream.len() as u64 * 2048;
    let mut cycle = 0u64;
    for t in &stream[..depth] {
        q.enqueue(*t);
    }
    per_unit(budget, || {
        cycle += 1;
        for t in stream {
            let mut t = *t;
            t.deadline = SimTime(t.deadline.0 + cycle * span);
            q.enqueue(t);
            black_box(q.dequeue());
        }
        stream.len() as u64
    })
}

/// `FlatTwoQueue` fed a deadline stream with a `late` share of
/// out-of-order deadlines.
pub fn flat_two_queue(late: f64, seed: u64, budget: Duration) -> f64 {
    queue_pairs(FlatTwoQueue::new(), &deadline_stream(late, seed), 4, budget)
}

/// `FlatFifo` on the same kind of stream (order does not matter to it).
pub fn flat_fifo(seed: u64, budget: Duration) -> f64 {
    queue_pairs(FlatFifo::new(), &deadline_stream(0.0, seed), 4, budget)
}

/// Events of the switch and NIC probe drivers.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Upstream of an input port may send its next packet.
    Upstream(u8),
    Arrive(u8, PktTok),
    XbarDone(Port),
    TxDone(Port),
    /// Downstream of an output freed the buffer space of a packet.
    Credit(Port, Vc, u32),
    Wake,
}

/// Wire and credit delay of the paper's links.
const WIRE_NS: u64 = 32;

/// A transmission starting now: it ends at `finish`, and the receiver
/// returns the packet's credit a wire delay each way later.
fn transmit(q: &mut EventQueue<Ev>, out: Port, tok: PktTok, finish: SimTime) {
    q.schedule(finish, Ev::TxDone(out));
    q.schedule(
        finish + SimDuration::from_ns(2 * WIRE_NS),
        Ev::Credit(out, tok.vc, tok.len),
    );
}

/// One `Switch` of the paper (16 ports, 8 KiB per VC) driven
/// arrival → crossbar → transmission → credit with every input
/// saturated by uniformly addressed packets whose deadlines come from a
/// per-input Virtual Clock. Upstream senders honour the switch's credit
/// returns; downstream returns credit one wire delay after transmission.
/// Nanoseconds per forwarded packet, driver included.
pub fn switch(arch: Architecture, seed: u64, budget: Duration) -> f64 {
    let cfg = SwitchConfig::paper(arch);
    let n = cfg.n_ports;
    let mut sw = Switch::new(cfg);
    let mut rng = SimRng::new(seed);
    let mut q: EventQueue<Ev> = EventQueue::new();
    let mut acts: Vec<NodeAction> = Vec::with_capacity(64);
    let mut credit = vec![[cfg.buffer_per_vc; 2]; n as usize];
    let mut clock = vec![0u64; n as usize];
    let mut next: Vec<PktTok> = Vec::with_capacity(n as usize);
    let mut ids = 0u64;
    let mut fresh = |rng: &mut SimRng, clock: &mut u64, now: u64| {
        ids += 1;
        let class = TrafficClass::from_idx(rng.index(4));
        let len = rng.range_u64(64, 2048) as u32;
        // Virtual Clock at 1/4 of the link: D = max(D, now) + 4·len.
        *clock = (*clock).max(now) + 4 * len as u64;
        token(ids, *clock, len, rng.index(n as usize) as u8, class)
    };
    for p in 0..n {
        let t = fresh(&mut rng, &mut clock[p as usize], 0);
        next.push(t);
        q.schedule(SimTime::ZERO, Ev::Upstream(p));
    }
    let mut upstream_pending = vec![true; n as usize];
    let mut forwarded = 0u64;
    let start = Instant::now();
    let mut batch_end = 0u64;
    loop {
        batch_end += 4096;
        while forwarded < batch_end {
            let ev = q
                .pop()
                .expect("a saturated switch always has pending events");
            let now = ev.time;
            match ev.payload {
                Ev::Upstream(p) => {
                    let pi = p as usize;
                    upstream_pending[pi] = false;
                    let t = next[pi];
                    if credit[pi][t.vc.idx()] >= t.len {
                        credit[pi][t.vc.idx()] -= t.len;
                        let done = now + SimDuration::from_ns(t.len as u64);
                        q.schedule(done + SimDuration::from_ns(WIRE_NS), Ev::Arrive(p, t));
                        next[pi] = fresh(&mut rng, &mut clock[pi], now.0);
                        upstream_pending[pi] = true;
                        q.schedule(done, Ev::Upstream(p));
                    }
                }
                Ev::Arrive(p, t) => sw.on_packet_arrival(Port(p), t, now, &mut acts),
                Ev::XbarDone(o) => sw.on_xbar_done(o, now, &mut acts),
                Ev::TxDone(o) => {
                    forwarded += 1;
                    sw.on_tx_done(o, now, &mut acts)
                }
                Ev::Credit(o, vc, bytes) => sw.on_credit(o, vc, bytes, now, &mut acts),
                Ev::Wake => {}
            }
            for a in acts.drain(..) {
                match a {
                    NodeAction::StartTx {
                        out_port,
                        tok,
                        finish,
                    } => transmit(&mut q, out_port, tok, finish),
                    NodeAction::SendCredit { in_port, vc, bytes } => {
                        let pi = in_port.idx();
                        credit[pi][vc.idx()] += bytes;
                        if !upstream_pending[pi] {
                            upstream_pending[pi] = true;
                            q.schedule(
                                now + SimDuration::from_ns(WIRE_NS),
                                Ev::Upstream(in_port.0),
                            );
                        }
                    }
                    NodeAction::ScheduleXbarDone { out_port, at } => {
                        q.schedule(at, Ev::XbarDone(out_port))
                    }
                    NodeAction::WakeAt { .. } => {}
                }
            }
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    start.elapsed().as_nanos() as f64 / forwarded as f64
}

/// One `Nic` kept busy with stamped message batches (1–4 packets, a
/// quarter of them paced by a future eligible time on the deadline
/// architectures); the leaf switch returns credit one wire delay after
/// each transmission. Nanoseconds per injected packet, driver included.
pub fn nic(arch: Architecture, seed: u64, budget: Duration) -> f64 {
    let cfg = NicConfig {
        arch,
        link_bw: Bandwidth::gbps(8),
        peer_buffer_per_vc: 8 * 1024,
    };
    let mut nic = Nic::new(cfg);
    let mut rng = SimRng::new(seed);
    let mut q: EventQueue<Ev> = EventQueue::new();
    let mut acts: Vec<NodeAction> = Vec::with_capacity(16);
    let mut batch: Vec<PktTok> = Vec::with_capacity(4);
    let mut stamper = Stamper::new(DeadlineMode::AvgBandwidth(Bandwidth::gbps(2)));
    let mut ids = 0u64;
    let mut injected = 0u64;
    let mut now = SimTime::ZERO;
    let start = Instant::now();
    let mut batch_end = 0u64;
    loop {
        batch_end += 4096;
        while injected < batch_end {
            if nic.queued_packets() < 8 {
                let parts = 1 + rng.index(4) as u32;
                let paced = rng.chance(0.25);
                for _ in 0..parts {
                    ids += 1;
                    let class = TrafficClass::from_idx(rng.index(4));
                    let len = rng.range_u64(64, 2048) as u32;
                    let st = stamper.stamp(now, len, parts);
                    let mut t = token(ids, st.deadline.0, len, 0, class);
                    if paced {
                        t.eligible = now + SimDuration::from_ns(rng.range_u64(1, 4_000));
                    }
                    batch.push(t);
                }
                nic.enqueue_batch(&batch, now, &mut acts);
                batch.clear();
            } else {
                let ev = q.pop().expect("a busy NIC always has pending events");
                now = ev.time;
                match ev.payload {
                    Ev::TxDone(_) => {
                        injected += 1;
                        nic.on_tx_done(now, &mut acts)
                    }
                    Ev::Credit(_, vc, bytes) => nic.on_credit(vc, bytes, now, &mut acts),
                    Ev::Wake => nic.on_wake(now, &mut acts),
                    Ev::Upstream(_) | Ev::Arrive(..) | Ev::XbarDone(_) => {}
                }
            }
            for a in acts.drain(..) {
                match a {
                    NodeAction::StartTx {
                        out_port,
                        tok,
                        finish,
                    } => transmit(&mut q, out_port, tok, finish),
                    NodeAction::WakeAt { at } => q.schedule(at.max(now), Ev::Wake),
                    NodeAction::SendCredit { .. } | NodeAction::ScheduleXbarDone { .. } => {}
                }
            }
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    start.elapsed().as_nanos() as f64 / injected as f64
}

/// `Stamper::stamp` for the two stamping modes the workloads use
/// (frame-spread video, average-bandwidth aggregates), alternating.
pub fn stamp(seed: u64, budget: Duration) -> f64 {
    let mut rng = SimRng::new(seed);
    let lens: Vec<u32> = (0..1024).map(|_| rng.range_u64(64, 2048) as u32).collect();
    let mut video = Stamper::with_eligible(
        DeadlineMode::FrameSpread {
            target: SimDuration::from_ms(10),
        },
        SimDuration::from_us(20),
    );
    let mut agg = Stamper::new(DeadlineMode::AvgBandwidth(Bandwidth::gbps(1)));
    let mut now = 0u64;
    per_unit(budget, || {
        for pair in lens.chunks_exact(2) {
            now += 300;
            black_box(video.stamp(SimTime(now), pair[0], 8));
            black_box(agg.stamp(SimTime(now), pair[1], 1));
        }
        lens.len() as u64
    })
}

/// Result of the admission probe.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionProbe {
    pub ns_per_admit: f64,
    pub ns_per_release: f64,
}

/// `AdmissionController::admit` over `requests` in order (a workload's
/// flow population), then `release` of every admitted route; repeated
/// until `budget` is spent.
pub fn admission(
    net: &FoldedClos,
    link_bw: Bandwidth,
    requests: &[(HostId, HostId, Bandwidth)],
    budget: Duration,
) -> AdmissionProbe {
    let mut admit_ns = 0u128;
    let mut release_ns = 0u128;
    let (mut admits, mut releases) = (0u64, 0u64);
    let mut routes: Vec<(Route, Bandwidth)> = Vec::with_capacity(requests.len());
    let start = Instant::now();
    loop {
        let mut ac = AdmissionController::new(net, link_bw, 1.0);
        let t = Instant::now();
        for &(src, dst, bw) in requests {
            if let Ok(adm) = ac.admit(net, src, dst, bw) {
                routes.push((adm.route, bw));
            }
        }
        admit_ns += t.elapsed().as_nanos();
        admits += requests.len() as u64;
        let t = Instant::now();
        for (route, bw) in routes.drain(..).rev() {
            ac.release(net, &route, bw)
                .expect("releasing a route this ledger admitted");
            releases += 1;
        }
        release_ns += t.elapsed().as_nanos();
        if start.elapsed() >= budget {
            break;
        }
    }
    AdmissionProbe {
        ns_per_admit: admit_ns as f64 / admits.max(1) as f64,
        ns_per_release: release_ns as f64 / releases.max(1) as f64,
    }
}

/// `FoldedClos::build` five times: the fabric and the median seconds.
pub fn topology_build(params: ClosParams) -> (FoldedClos, f64) {
    let mut net = None;
    let secs = median_secs(5, || net = Some(FoldedClos::build(params)));
    (net.expect("built at least once"), secs)
}

/// Median host seconds of `f` over `reps` calls.
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let v: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    crate::stats::median(&v)
}

#[cfg(test)]
mod tests {
    use super::*;

    const QUICK: Duration = Duration::from_millis(5);

    #[test]
    fn probes_do_work_and_report_positive_costs() {
        assert!(event_queue(1000, 50, 1, QUICK) > 0.0);
        assert!(spsc_ring(10_000) > 0.0);
        assert!(flat_two_queue(0.1, 1, QUICK) > 0.0);
        assert!(flat_fifo(1, QUICK) > 0.0);
        for arch in [Architecture::Traditional2Vc, Architecture::Advanced2Vc] {
            assert!(switch(arch, 1, QUICK) > 0.0);
            assert!(nic(arch, 1, QUICK) > 0.0);
        }
        assert!(stamp(1, QUICK) > 0.0);
        let net = FoldedClos::build(dqos_topology::ClosParams::scaled(16));
        let reqs: Vec<_> = (0..16)
            .map(|h| {
                (
                    HostId(h),
                    HostId((h + 5) % 16),
                    Bandwidth::bytes_per_sec(1_000_000),
                )
            })
            .collect();
        let a = admission(&net, Bandwidth::gbps(8), &reqs, QUICK);
        assert!(a.ns_per_admit > 0.0 && a.ns_per_release > 0.0);
    }
}
