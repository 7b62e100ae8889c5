//! The FIFO and two-queue buffer structures, on flat ring/slot storage.
//!
//! * [`FlatFifo`] — a plain FIFO. Used by *Traditional 2 VCs* (which
//!   round-robins) and *Simple 2 VCs* (whose arbiter compares the
//!   deadlines at the queue **heads** only — the merge-sort argument of
//!   §3.2).
//! * [`FlatTwoQueue`] — the paper's contribution (§3.4): an *ordered
//!   queue* `L` plus a *take-over queue* `U`, both FIFO. **Enqueue**
//!   (Definition 1): if both queues are empty, or the incoming deadline
//!   is ≥ the deadline at `L`'s tail, append to `L`; otherwise append to
//!   `U`. `L` therefore stays deadline-sorted (Theorem 1) and its tail
//!   holds the global maximum (Theorem 2). **Dequeue** (Definition 2):
//!   take the smaller of the two heads, ties to `L`. A state with
//!   packets only in `U` is unreachable (Lemma 1). The appendix proves
//!   the discipline never reorders packets *within a flow* (Theorem 3);
//!   the test suite at the bottom of this file replays all four results
//!   against random and exhaustive arrival/service interleavings.
//!
//! Both sit on one power-of-two slot ring per queue rather than a
//! `VecDeque`, which carries per-call branch and bounds overhead the
//! simulator's inner loop feels at tens of millions of operations per
//! second:
//!
//! * slots are `Option<T>` in one contiguous `Vec`, head/length indices
//!   wrap with a mask — no per-element allocation ever, and growth
//!   (doubling, with an in-order copy) happens only until the ring
//!   reaches the high-water mark of its port, after which enqueue and
//!   dequeue are straight-line slot writes;
//! * the two-queue dequeue choice is a **branchless compare**: each
//!   ring's head deadline is read through an `u64::MAX` sentinel for
//!   "empty", and the candidate is the take-over head exactly when its
//!   key is *strictly* below the ordered key — which encodes Definition
//!   2, Lemma 1 (empty-ordered ⇒ empty-take-over ⇒ both sentinels), and
//!   the ties-go-to-ordered rule in one unsigned comparison.
//!
//! [`AnyQueue`](crate::traits::AnyQueue) dispatches to these for the
//! `Fifo` and `TwoQueue` kinds. The tests check both against a minimal
//! `VecDeque` reference model defined inside the test module.

// tidy: hot-path

use crate::traits::{Deadlined, SchedQueue};
use dqos_sim_core::SimTime;

/// Deadline key used for the branchless head compare: empty reads as
/// `u64::MAX`, so any real head wins and two empties tie (→ ordered,
/// which `candidate_is_take_over` maps back to `None`).
const EMPTY_KEY: u64 = u64::MAX;

/// A power-of-two slot ring: the storage primitive under both flat
/// queues. Not a scheduler-facing type — no deadline logic lives here.
#[derive(Debug, Clone)]
struct Ring<T> {
    slots: Vec<Option<T>>,
    head: usize,
    len: usize,
}

impl<T> Ring<T> {
    const INITIAL_CAP: usize = 8;

    fn new() -> Self {
        Ring { slots: Vec::new(), head: 0, len: 0 }
    }

    #[inline]
    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    /// Double the ring, copying live slots back in queue order so the
    /// head lands on index 0. Runs O(log n) times total per ring.
    fn grow(&mut self) {
        let new_cap = if self.slots.is_empty() { Self::INITIAL_CAP } else { self.slots.len() * 2 };
        let mut slots: Vec<Option<T>> = Vec::with_capacity(new_cap);
        if !self.slots.is_empty() {
            let mask = self.mask();
            for i in 0..self.len {
                slots.push(self.slots[(self.head + i) & mask].take());
            }
        }
        slots.resize_with(new_cap, || None);
        self.slots = slots;
        self.head = 0;
    }

    #[inline]
    fn push_back(&mut self, item: T) {
        if self.len == self.slots.len() {
            self.grow();
        }
        let idx = (self.head + self.len) & self.mask();
        self.slots[idx] = Some(item);
        self.len += 1;
    }

    #[inline]
    fn pop_front(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        let item = self.slots[self.head].take();
        debug_assert!(item.is_some(), "ring slot under head must be occupied");
        self.head = (self.head + 1) & self.mask();
        self.len -= 1;
        item
    }

    #[inline]
    fn front(&self) -> Option<&T> {
        if self.len == 0 {
            None
        } else {
            self.slots[self.head].as_ref()
        }
    }

    #[inline]
    fn back(&self) -> Option<&T> {
        if self.len == 0 {
            None
        } else {
            self.slots[(self.head + self.len - 1) & self.mask()].as_ref()
        }
    }

    fn iter(&self) -> impl Iterator<Item = &T> {
        (0..self.len).map(move |i| {
            self.slots[(self.head + i) & self.mask()]
                .as_ref()
                // tidy: allow(no-unwrap) -- every slot in [head, head+len)
                // is occupied by the ring invariant.
                .expect("ring slot within live range")
        })
    }
}

/// Flat-ring FIFO with byte accounting.
#[derive(Debug, Clone)]
pub struct FlatFifo<T> {
    ring: Ring<T>,
    bytes: u64,
}

impl<T> Default for FlatFifo<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> FlatFifo<T> {
    /// An empty queue.
    pub fn new() -> Self {
        FlatFifo { ring: Ring::new(), bytes: 0 }
    }

    /// Iterate items front to back (diagnostics).
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.ring.iter()
    }
}

impl<T: Deadlined> SchedQueue<T> for FlatFifo<T> {
    #[inline]
    fn enqueue(&mut self, item: T) {
        self.bytes += item.len_bytes() as u64;
        self.ring.push_back(item);
    }

    #[inline]
    fn head_deadline(&self) -> Option<SimTime> {
        self.ring.front().map(|p| p.deadline())
    }

    #[inline]
    fn peek(&self) -> Option<&T> {
        self.ring.front()
    }

    #[inline]
    fn dequeue(&mut self) -> Option<T> {
        let item = self.ring.pop_front()?;
        self.bytes -= item.len_bytes() as u64;
        Some(item)
    }

    fn min_deadline(&self) -> Option<SimTime> {
        self.ring.iter().map(|p| p.deadline()).min()
    }

    #[inline]
    fn len(&self) -> usize {
        self.ring.len
    }

    #[inline]
    fn bytes(&self) -> u64 {
        self.bytes
    }
}

/// Flat-ring two-queue system ("Advanced 2 VCs"), with the
/// dequeue-side head compare reduced to one branchless unsigned
/// comparison.
///
/// ```
/// use dqos_queues::{FlatTwoQueue, SchedQueue};
/// use dqos_sim_core::SimTime;
///
/// #[derive(Clone, Copy)]
/// struct Pkt(u64);
/// impl dqos_queues::Deadlined for Pkt {
///     fn deadline(&self) -> SimTime { SimTime::from_ns(self.0) }
///     fn len_bytes(&self) -> u32 { 100 }
/// }
///
/// let mut q = FlatTwoQueue::new();
/// q.enqueue(Pkt(100));
/// q.enqueue(Pkt(500));   // ordered queue: 100, 500
/// q.enqueue(Pkt(200));   // below the tail -> take-over queue
/// assert_eq!(q.take_over_len(), 1);
/// // Dequeue always serves the smaller of the two heads: the late
/// // low-deadline packet overtakes 500 without reordering any flow.
/// assert_eq!(q.dequeue().unwrap().0, 100);
/// assert_eq!(q.dequeue().unwrap().0, 200);
/// assert_eq!(q.dequeue().unwrap().0, 500);
/// ```
#[derive(Debug, Clone)]
pub struct FlatTwoQueue<T> {
    /// Ordered queue (appendix: `L`).
    ordered: Ring<T>,
    /// Take-over queue (appendix: `U`).
    take_over: Ring<T>,
    bytes: u64,
    take_over_total: u64,
}

impl<T> Default for FlatTwoQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> FlatTwoQueue<T> {
    /// An empty structure.
    pub fn new() -> Self {
        FlatTwoQueue {
            ordered: Ring::new(),
            take_over: Ring::new(),
            bytes: 0,
            take_over_total: 0,
        }
    }

    /// Current take-over queue occupancy.
    pub fn take_over_len(&self) -> usize {
        self.take_over.len
    }

    /// Current ordered queue occupancy.
    pub fn ordered_len(&self) -> usize {
        self.ordered.len
    }

    /// Cumulative count of packets that went to the take-over queue —
    /// each one is an *order error* the Simple architecture would have
    /// suffered (the §3.4 / Figure 2 analysis).
    pub fn take_over_total(&self) -> u64 {
        self.take_over_total
    }
}

impl<T: Deadlined> FlatTwoQueue<T> {
    /// Head deadline of a ring through the empty sentinel.
    #[inline]
    fn key(ring: &Ring<T>) -> u64 {
        ring.front().map_or(EMPTY_KEY, |p| p.deadline().0)
    }

    /// The branchless Definition-2 compare: `true` iff the candidate is
    /// the take-over head. Strict `<` gives ties to the ordered queue
    /// and makes the empty/empty case `false`; Lemma 1 rules out
    /// ordered-empty with take-over occupied, so the sentinel ordering
    /// is exhaustive.
    #[inline]
    fn take_over_wins(&self) -> bool {
        Self::key(&self.take_over) < Self::key(&self.ordered)
    }

    /// Which queue the dequeue candidate currently sits in (`None` when
    /// empty). The switch uses it to tag crossbar grants for the flight
    /// recorder (was the winner served via the take-over path?).
    pub fn candidate_is_take_over(&self) -> Option<bool> {
        if self.ordered.len + self.take_over.len == 0 {
            None
        } else {
            Some(self.take_over_wins())
        }
    }

    /// Debug check of Theorems 1 and 2 on the live structure.
    ///
    /// * `L` is deadline-sorted.
    /// * Every element of `U` is strictly below `L`'s tail deadline.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut prev: Option<SimTime> = None;
        for p in self.ordered.iter() {
            if let Some(pd) = prev {
                if p.deadline() < pd {
                    return Err(format!(
                        "ordered ring not sorted: {:?} after {:?}",
                        p.deadline(),
                        pd
                    ));
                }
            }
            prev = Some(p.deadline());
        }
        if let Some(tail) = self.ordered.back() {
            for u in self.take_over.iter() {
                if u.deadline() >= tail.deadline() {
                    return Err(format!(
                        "take-over element {:?} not below ordered tail {:?}",
                        u.deadline(),
                        tail.deadline()
                    ));
                }
            }
        } else if self.take_over.len != 0 {
            return Err("take-over non-empty while ordered empty (Lemma 1)".into());
        }
        Ok(())
    }
}

impl<T: Deadlined> SchedQueue<T> for FlatTwoQueue<T> {
    #[inline]
    fn enqueue(&mut self, item: T) {
        self.bytes += item.len_bytes() as u64;
        // Definition 1: at or above the ordered tail -> ordered queue
        // (sentinel: an empty ordered queue reads as tail ZERO, which any
        // deadline is >=, matching the both-empty -> L rule).
        let tail = self.ordered.back().map_or(0, |p| p.deadline().0);
        if item.deadline().0 >= tail {
            self.ordered.push_back(item);
        } else {
            self.take_over_total += 1;
            self.take_over.push_back(item);
        }
        debug_assert!(self.check_invariants().is_ok());
    }

    #[inline]
    fn head_deadline(&self) -> Option<SimTime> {
        let key = Self::key(&self.ordered).min(Self::key(&self.take_over));
        if key == EMPTY_KEY {
            None
        } else {
            Some(SimTime(key))
        }
    }

    #[inline]
    fn peek(&self) -> Option<&T> {
        if self.take_over_wins() {
            self.take_over.front()
        } else {
            self.ordered.front()
        }
    }

    #[inline]
    fn dequeue(&mut self) -> Option<T> {
        let item = if self.take_over_wins() {
            self.take_over.pop_front()
        } else {
            self.ordered.pop_front()
        }?;
        self.bytes -= item.len_bytes() as u64;
        debug_assert!(self.check_invariants().is_ok());
        Some(item)
    }

    fn min_deadline(&self) -> Option<SimTime> {
        // Theorem 1: the ordered ring's minimum is its head; the
        // take-over ring is unordered and needs the scan.
        let l = self.ordered.front().map(|p| p.deadline());
        let u = self.take_over.iter().map(|p| p.deadline()).min();
        match (l, u) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.ordered.len + self.take_over.len
    }

    #[inline]
    fn bytes(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::test_util::Item;
    use crate::voq::Voq;
    use dqos_sim_core::SimRng;
    use std::collections::VecDeque;

    // -----------------------------------------------------------------
    // Unit cases
    // -----------------------------------------------------------------

    #[test]
    fn fifo_order_regardless_of_deadline() {
        let mut q = FlatFifo::new();
        q.enqueue(Item::new(0, 0, 100));
        q.enqueue(Item::new(1, 0, 50)); // earlier deadline, behind in FIFO
        assert_eq!(q.head_deadline(), Some(SimTime::from_ns(100)));
        assert_eq!(q.dequeue().unwrap().deadline, 100);
        assert_eq!(q.dequeue().unwrap().deadline, 50);
    }

    #[test]
    fn fifo_byte_accounting() {
        let mut q = FlatFifo::new();
        assert_eq!(q.bytes(), 0);
        q.enqueue(Item { flow: 0, seq: 0, deadline: 1, len: 300 });
        q.enqueue(Item { flow: 0, seq: 1, deadline: 2, len: 200 });
        assert_eq!(q.bytes(), 500);
        q.dequeue();
        assert_eq!(q.bytes(), 200);
        q.dequeue();
        assert_eq!(q.bytes(), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn empty_behaviour() {
        let mut f: FlatFifo<Item> = FlatFifo::new();
        assert!(f.dequeue().is_none() && f.peek().is_none() && f.head_deadline().is_none());
        let mut t: FlatTwoQueue<Item> = FlatTwoQueue::new();
        assert!(t.dequeue().is_none() && t.peek().is_none() && t.head_deadline().is_none());
        assert_eq!(t.candidate_is_take_over(), None);
        assert_eq!((f.len(), t.len()), (0, 0));
    }

    #[test]
    fn in_order_arrivals_all_go_to_ordered() {
        let mut q = FlatTwoQueue::new();
        for i in 0..10 {
            q.enqueue(Item::new(0, i, 100 * (i as u64 + 1)));
        }
        assert_eq!(q.ordered_len(), 10);
        assert_eq!(q.take_over_len(), 0);
        assert_eq!(q.take_over_total(), 0);
    }

    #[test]
    fn late_low_deadline_packet_takes_over() {
        let mut q = FlatTwoQueue::new();
        q.enqueue(Item::new(0, 0, 100));
        q.enqueue(Item::new(0, 1, 500)); // high deadline
        q.enqueue(Item::new(1, 0, 200)); // lower than tail -> take-over
        assert_eq!(q.take_over_len(), 1);
        // Dequeue order: 100 (L), then 200 (U takes over 500), then 500.
        assert_eq!(q.dequeue().unwrap().deadline, 100);
        assert_eq!(q.dequeue().unwrap().deadline, 200);
        assert_eq!(q.dequeue().unwrap().deadline, 500);
        assert!(q.dequeue().is_none());
    }

    #[test]
    fn equal_deadline_goes_to_ordered() {
        let mut q = FlatTwoQueue::new();
        q.enqueue(Item::new(0, 0, 100));
        q.enqueue(Item::new(1, 0, 100)); // ">=" tail -> ordered queue
        assert_eq!(q.ordered_len(), 2);
        assert_eq!(q.take_over_len(), 0);
        // FIFO among equals.
        assert_eq!(q.dequeue().unwrap().flow, 0);
        assert_eq!(q.dequeue().unwrap().flow, 1);
    }

    #[test]
    fn tie_between_heads_prefers_ordered() {
        let mut q = FlatTwoQueue::new();
        q.enqueue(Item::new(0, 0, 100));
        q.enqueue(Item::new(0, 1, 300));
        q.enqueue(Item::new(1, 0, 100)); // -> U, ties L's head
        assert_eq!(q.dequeue().unwrap().flow, 0, "ordered head wins ties");
        assert_eq!(q.dequeue().unwrap().flow, 1);
    }

    #[test]
    fn byte_accounting_across_both_queues() {
        let mut q = FlatTwoQueue::new();
        q.enqueue(Item { flow: 0, seq: 0, deadline: 100, len: 10 });
        q.enqueue(Item { flow: 0, seq: 1, deadline: 300, len: 20 });
        q.enqueue(Item { flow: 1, seq: 0, deadline: 50, len: 40 }); // U
        assert_eq!(q.bytes(), 70);
        q.dequeue(); // 50 from U
        assert_eq!(q.bytes(), 30);
    }

    #[test]
    fn ring_grows_and_wraps() {
        let mut q = FlatFifo::new();
        let mut popped = 0usize;
        // Interleave so the head walks around the ring across growth.
        for i in 0..200u32 {
            q.enqueue(Item::new(0, i, (i as u64) + 1));
            if i % 3 == 0 && q.dequeue().is_some() {
                popped += 1;
            }
        }
        // Everything still comes out in strict FIFO order.
        let mut prev = 0u64;
        let mut drained = 0usize;
        while let Some(it) = q.dequeue() {
            assert!(it.deadline > prev, "FIFO order broken across wrap");
            prev = it.deadline;
            drained += 1;
        }
        assert_eq!(popped + drained, 200, "conservation across growth and wrap");
    }

    // -----------------------------------------------------------------
    // Differential suite: flat structures vs. a VecDeque reference model
    // -----------------------------------------------------------------

    /// Minimal reference model: `l` and `u` are the appendix's ordered
    /// and take-over queues, driven by Definitions 1 and 2. With `fifo`
    /// set every item goes to `l`, which makes it a plain FIFO.
    #[derive(Default)]
    struct Model {
        fifo: bool,
        l: VecDeque<Item>,
        u: VecDeque<Item>,
        take_over_total: u64,
    }

    impl Model {
        fn enqueue(&mut self, it: Item) {
            if self.fifo || self.l.back().is_none_or(|t| it.deadline >= t.deadline) {
                self.l.push_back(it);
            } else {
                self.take_over_total += 1;
                self.u.push_back(it);
            }
        }

        /// Definition 2: the take-over head wins only when strictly due first.
        fn take_over_wins(&self) -> bool {
            matches!((self.l.front(), self.u.front()), (Some(l), Some(u)) if u.deadline < l.deadline)
        }

        fn peek(&self) -> Option<&Item> {
            if self.take_over_wins() {
                self.u.front()
            } else {
                self.l.front()
            }
        }

        fn dequeue(&mut self) -> Option<Item> {
            if self.take_over_wins() {
                self.u.pop_front()
            } else {
                self.l.pop_front()
            }
        }

        fn len(&self) -> usize {
            self.l.len() + self.u.len()
        }

        fn bytes(&self) -> u64 {
            self.l.iter().chain(&self.u).map(|i| i.len as u64).sum()
        }
    }

    /// Assert every observable of the trait agrees between the flat
    /// structure and the model at the current state.
    fn assert_observables<Q: SchedQueue<Item>>(flat: &Q, m: &Model, step: usize) {
        assert_eq!(flat.len(), m.len(), "len diverged at step {step}");
        assert_eq!(flat.bytes(), m.bytes(), "bytes diverged at step {step}");
        assert_eq!(flat.is_empty(), m.len() == 0, "is_empty diverged at step {step}");
        assert_eq!(
            flat.head_deadline(),
            m.peek().map(|i| SimTime::from_ns(i.deadline)),
            "head_deadline diverged at step {step}"
        );
        assert_eq!(flat.peek(), m.peek(), "peek diverged at step {step}");
        assert_eq!(
            flat.min_deadline(),
            m.l.iter().chain(&m.u).map(|i| SimTime::from_ns(i.deadline)).min(),
            "min_deadline diverged at step {step}"
        );
    }

    /// The Advanced-specific observables: take-over routing and the
    /// grant tag feed `take_over_total` in the run reports, which the
    /// determinism matrix compares bit-for-bit.
    fn assert_two_queue_observables(flat: &FlatTwoQueue<Item>, m: &Model, step: usize) {
        assert_eq!(flat.take_over_len(), m.u.len(), "U len at step {step}");
        assert_eq!(flat.ordered_len(), m.l.len(), "L len at step {step}");
        assert_eq!(flat.take_over_total(), m.take_over_total, "take_over_total at step {step}");
        assert_eq!(
            flat.candidate_is_take_over(),
            (m.len() > 0).then(|| m.take_over_wins()),
            "candidate tag at step {step}"
        );
        flat.check_invariants().unwrap();
    }

    fn random_item(rng: &mut SimRng, seq: u32) -> Item {
        Item {
            flow: rng.range_u64(0, 7) as u32,
            seq,
            // Small range on purpose: plenty of deadline ties, the case
            // where the candidate compare could diverge.
            deadline: rng.range_u64(0, 63),
            len: 64 + 64 * rng.range_u64(0, 31) as u32,
        }
    }

    /// Drive identical random op-sequences (biased toward enqueue so the
    /// structures fill and wrap) through a flat structure and the model,
    /// checking every observable (plus `extra`) after every op, then
    /// drain both to the end.
    fn differential<Q: SchedQueue<Item>>(
        mut flat: Q,
        mut m: Model,
        seed: u64,
        ops: usize,
        extra: impl Fn(&Q, &Model, usize),
    ) {
        let mut rng = SimRng::new(seed);
        let mut seq = 0u32;
        for step in 0..ops {
            if rng.chance(0.6) {
                let item = random_item(&mut rng, seq);
                seq += 1;
                flat.enqueue(item);
                m.enqueue(item);
            } else {
                assert_eq!(flat.dequeue(), m.dequeue(), "dequeue diverged at step {step}");
            }
            assert_observables(&flat, &m, step);
            extra(&flat, &m, step);
        }
        // The wrap-around exit path must agree too.
        loop {
            let (f, o) = (flat.dequeue(), m.dequeue());
            assert_eq!(f, o, "drain diverged");
            if f.is_none() {
                break;
            }
        }
    }

    #[test]
    fn flat_fifo_matches_fifo_reference() {
        for seed in [1u64, 0xF1F0, 0xDEAD_BEEF] {
            let m = Model { fifo: true, ..Model::default() };
            differential(FlatFifo::new(), m, seed, 2_000, |_, _, _| {});
        }
    }

    #[test]
    fn flat_two_queue_matches_two_queue_reference() {
        for seed in [2u64, 0x2277, 0xCAFE_F00D, 0x7A0C] {
            differential(
                FlatTwoQueue::new(),
                Model::default(),
                seed,
                3_000,
                assert_two_queue_observables,
            );
        }
    }

    /// VOQ banks composed over the flat two-queue behave like one
    /// reference model per output under per-output random traffic.
    #[test]
    fn voq_over_flat_matches_reference_per_output() {
        let n_out = 4;
        let mut voq: Voq<FlatTwoQueue<Item>> = Voq::new(n_out, FlatTwoQueue::new);
        let mut models: Vec<Model> = (0..n_out).map(|_| Model::default()).collect();
        let mut rng = SimRng::new(0xB00);
        let mut seq = 0u32;
        for step in 0..2_000 {
            let out = rng.index(n_out);
            if rng.chance(0.6) {
                let item = random_item(&mut rng, seq);
                seq += 1;
                voq.enqueue(out, item);
                models[out].enqueue(item);
            } else {
                assert_eq!(voq.dequeue(out), models[out].dequeue(), "voq dequeue at step {step}");
            }
            let total: usize = models.iter().map(Model::len).sum();
            assert_eq!(voq.total_len(), total, "voq len at step {step}");
            assert_eq!(voq.bytes(), models.iter().map(Model::bytes).sum::<u64>(), "voq bytes");
            for (o, m) in models.iter().enumerate() {
                assert_eq!(
                    voq.head_deadline(o),
                    m.peek().map(|i| SimTime::from_ns(i.deadline)),
                    "voq head at out {o}, step {step}"
                );
            }
        }
    }

    // -----------------------------------------------------------------
    // The appendix suite (Theorems 1–3, Lemma 1; DESIGN §5)
    // -----------------------------------------------------------------

    /// Drive an arrival/service interleaving through the two-queue and
    /// return departures, checking Theorems 1 & 2 and Lemma 1 after
    /// every operation. Arrivals satisfy the appendix hypotheses: within
    /// each flow, arrival order == generation order and deadlines
    /// strictly increase.
    fn run_model(
        n_flows: u32,
        // (flow, deadline-gap) per arrival; gaps accumulate per flow.
        arrivals: &[(u32, u64)],
        // Service pattern: after arrival i, dequeue while pattern says so.
        service: &[bool],
    ) -> Vec<Item> {
        let mut q = FlatTwoQueue::new();
        let mut next_deadline = vec![0u64; n_flows as usize];
        let mut next_seq = vec![0u32; n_flows as usize];
        let mut out = vec![];
        for (i, &(f, gap)) in arrivals.iter().enumerate() {
            let f = f % n_flows;
            next_deadline[f as usize] += gap.max(1); // strictly increasing
            let item = Item::new(f, next_seq[f as usize], next_deadline[f as usize]);
            next_seq[f as usize] += 1;
            q.enqueue(item);
            q.check_invariants().unwrap();
            if *service.get(i % service.len().max(1)).unwrap_or(&false) {
                if let Some(it) = q.dequeue() {
                    out.push(it);
                }
                q.check_invariants().unwrap();
            }
        }
        while let Some(it) = q.dequeue() {
            q.check_invariants().unwrap();
            out.push(it);
        }
        out
    }

    /// Count, at each dequeue, whether some queued packet had a smaller
    /// deadline than the one served (§3.4 "order errors"), serving once
    /// every `period` arrivals and then draining.
    fn count_errors<Q: SchedQueue<Item>>(mut q: Q, items: &[Item], period: usize) -> u64 {
        let mut errors = 0u64;
        let mut pending: Vec<u64> = vec![];
        let serve = |q: &mut Q, pending: &mut Vec<u64>, errors: &mut u64| {
            if let Some(it) = q.dequeue() {
                if pending.iter().any(|&d| d < it.deadline) {
                    *errors += 1;
                }
                let pos = pending.iter().position(|&d| d == it.deadline).unwrap();
                pending.remove(pos);
            }
        };
        for (i, it) in items.iter().enumerate() {
            q.enqueue(*it);
            pending.push(it.deadline);
            if i % period == 0 {
                serve(&mut q, &mut pending, &mut errors);
            }
        }
        while !pending.is_empty() {
            serve(&mut q, &mut pending, &mut errors);
        }
        errors
    }

    fn random_arrivals(rng: &mut SimRng, n_flows: u32, len_max: usize) -> Vec<(u32, u64)> {
        let n = 1 + rng.index(len_max);
        (0..n)
            .map(|_| (rng.range_u64(0, (n_flows - 1) as u64) as u32, rng.range_u64(0, 499)))
            .collect()
    }

    /// Theorem 3: no out-of-order delivery within any flow, plus
    /// Theorems 1 & 2 and Lemma 1 at every step (checked inside
    /// `run_model`), over many random interleavings.
    #[test]
    fn theorem3_no_out_of_order_delivery() {
        let mut rng = SimRng::new(0x7EA3);
        for _ in 0..150 {
            let n_flows = 1 + rng.range_u64(0, 6) as u32;
            let arrivals = random_arrivals(&mut rng, n_flows, 300);
            let service: Vec<bool> = (0..1 + rng.index(15)).map(|_| rng.chance(0.5)).collect();
            let out = run_model(n_flows, &arrivals, &service);
            let mut last_seq = std::collections::HashMap::new();
            for it in &out {
                if let Some(&prev) = last_seq.get(&it.flow) {
                    assert!(it.seq > prev, "flow {} delivered seq {} after {}", it.flow, it.seq, prev);
                }
                last_seq.insert(it.flow, it.seq);
            }
            assert_eq!(out.len(), arrivals.len(), "conservation");
        }
    }

    /// Exhaustive small-case sweep of the same invariants: every
    /// arrival pattern of 2 flows × 5 arrivals × 2 gap choices, with
    /// every service period. Complements the randomized sweep with
    /// certainty on the small state space.
    #[test]
    fn theorem3_exhaustive_small_cases() {
        // Each arrival is (flow ∈ {0,1}, gap ∈ {1, 60}): 4 choices,
        // 5 arrivals -> 1024 patterns × 3 service patterns.
        for pattern in 0..4u32.pow(5) {
            let arrivals: Vec<(u32, u64)> = (0..5)
                .map(|i| {
                    let c = (pattern / 4u32.pow(i)) % 4;
                    (c % 2, if c / 2 == 0 { 1 } else { 60 })
                })
                .collect();
            for service in [&[true][..], &[false, true][..], &[false][..]] {
                let out = run_model(2, &arrivals, service);
                assert_eq!(out.len(), 5);
                for f in 0..2 {
                    let seqs: Vec<u32> =
                        out.iter().filter(|it| it.flow == f).map(|it| it.seq).collect();
                    assert!(seqs.windows(2).all(|w| w[0] < w[1]), "flow {f} reordered");
                }
            }
        }
    }

    /// The dequeue candidate is never worse than the best FIFO head.
    #[test]
    fn candidate_at_least_as_urgent_as_fifo() {
        let mut rng = SimRng::new(0x51EF);
        for _ in 0..150 {
            let arrivals = random_arrivals(&mut rng, 4, 200);
            let mut tq = FlatTwoQueue::new();
            let mut fifo = FlatFifo::new();
            let mut next_deadline = [0u64; 4];
            for &(f, gap) in &arrivals {
                next_deadline[f as usize] += gap.max(1);
                let item = Item::new(f, 0, next_deadline[f as usize]);
                tq.enqueue(item);
                fifo.enqueue(item);
                assert!(tq.head_deadline() <= fifo.head_deadline());
            }
        }
    }

    /// Order errors: two-queue <= plain FIFO under identical history.
    #[test]
    fn order_errors_not_worse_than_fifo() {
        let mut rng = SimRng::new(0x0E44);
        for _ in 0..150 {
            let arrivals = random_arrivals(&mut rng, 4, 200);
            if arrivals.len() < 2 {
                continue;
            }
            let period = 1 + rng.index(3);
            let mut next_deadline = [0u64; 4];
            let items: Vec<Item> = arrivals
                .iter()
                .map(|&(f, gap)| {
                    next_deadline[f as usize] += gap.max(1);
                    Item::new(f, 0, next_deadline[f as usize])
                })
                .collect();
            let tq_err = count_errors(FlatTwoQueue::new(), &items, period);
            let fifo_err = count_errors(FlatFifo::new(), &items, period);
            assert!(tq_err <= fifo_err, "two-queue errors {tq_err} > fifo errors {fifo_err}");
        }
    }
}
