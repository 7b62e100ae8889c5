//! The queue abstraction shared by all buffer structures.

use dqos_sim_core::SimTime;

/// An item that carries a deadline tag and a length.
///
/// Implemented for the simulator's `PktTok` below and for lightweight
/// test items inside this crate.
pub trait Deadlined {
    /// The deadline tag (in the holder's clock domain).
    fn deadline(&self) -> SimTime;
    /// Length in bytes, for occupancy accounting.
    fn len_bytes(&self) -> u32;
}

impl Deadlined for dqos_core::PktTok {
    #[inline]
    fn deadline(&self) -> SimTime {
        self.deadline
    }
    #[inline]
    fn len_bytes(&self) -> u32 {
        self.len
    }
}

/// A scheduler-facing queue.
///
/// `head_deadline`/`peek`/`dequeue` all refer to the same element: the
/// **candidate** the structure offers to the arbiter next. For a FIFO
/// that is the front in arrival order; for a heap it is the true minimum
/// deadline; for the two-queue system it is the smaller of the two queue
/// heads. The arbiter never sees past the candidate — that restriction
/// is exactly what makes the structures hardware-feasible.
pub trait SchedQueue<T: Deadlined> {
    /// Insert an item.
    fn enqueue(&mut self, item: T);
    /// Deadline of the current candidate.
    fn head_deadline(&self) -> Option<SimTime>;
    /// Borrow the current candidate.
    fn peek(&self) -> Option<&T>;
    /// Remove and return the current candidate.
    fn dequeue(&mut self) -> Option<T>;
    /// The smallest deadline anywhere in the structure — **not** what the
    /// hardware scheduler can see (that is [`SchedQueue::head_deadline`])
    /// but what an omniscient EDF would serve. The gap between the two at
    /// dequeue time is exactly the paper's *order error*; the simulator
    /// counts them. O(n) scans are acceptable: buffers hold at most a few
    /// packets (8 KiB / 2 KiB MTU).
    fn min_deadline(&self) -> Option<SimTime>;
    /// Number of queued items.
    fn len(&self) -> usize;
    /// Total queued bytes.
    fn bytes(&self) -> u64;
    /// True when no items are queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Runtime-selected queue structure (one per architecture), dispatching
/// to the concrete implementations.
///
/// The `Fifo` and `TwoQueue` kinds dispatch to the flat ring/slot
/// structures of [`crate::flat`].
#[derive(Debug, Clone)]
pub enum AnyQueue<T> {
    /// Plain FIFO (flat ring).
    Fifo(crate::flat::FlatFifo<T>),
    /// Deadline heap ("Ideal").
    Heap(crate::heap::HeapQueue<T>),
    /// Ordered + take-over queue pair ("Advanced", flat rings).
    TwoQueue(crate::flat::FlatTwoQueue<T>),
}

impl<T: Deadlined> AnyQueue<T> {
    /// Build the queue structure for an architecture's switch buffers.
    pub fn for_kind(kind: dqos_core::SwitchQueueKind) -> Self {
        match kind {
            dqos_core::SwitchQueueKind::Fifo => AnyQueue::Fifo(crate::flat::FlatFifo::new()),
            dqos_core::SwitchQueueKind::Heap => AnyQueue::Heap(crate::heap::HeapQueue::new()),
            dqos_core::SwitchQueueKind::TwoQueue => {
                AnyQueue::TwoQueue(crate::flat::FlatTwoQueue::new())
            }
        }
    }

    /// Take-over occupancy (Advanced only; 0 otherwise). Diagnostic for
    /// the order-error ablation.
    pub fn take_over_len(&self) -> usize {
        match self {
            AnyQueue::TwoQueue(q) => q.take_over_len(),
            _ => 0,
        }
    }

    /// Cumulative count of packets that needed the take-over queue
    /// (Advanced only; 0 otherwise) — each is an order error the Simple
    /// architecture would have served late.
    pub fn take_over_total(&self) -> u64 {
        match self {
            AnyQueue::TwoQueue(q) => q.take_over_total(),
            _ => 0,
        }
    }

    /// True when the current dequeue candidate sits in the take-over
    /// queue (Advanced only; `false` otherwise, including when empty).
    /// Read by the switch just before a crossbar grant to tag the
    /// flight-recorder event.
    pub fn candidate_is_take_over(&self) -> bool {
        match self {
            AnyQueue::TwoQueue(q) => q.candidate_is_take_over().unwrap_or(false),
            _ => false,
        }
    }

    /// True when this structure serves in plain arrival order, so a wait
    /// at its head is head-of-line blocking rather than deadline-ordered
    /// arbitration.
    pub fn is_fifo(&self) -> bool {
        matches!(self, AnyQueue::Fifo(_))
    }
}

impl<T: Deadlined> SchedQueue<T> for AnyQueue<T> {
    fn enqueue(&mut self, item: T) {
        match self {
            AnyQueue::Fifo(q) => q.enqueue(item),
            AnyQueue::Heap(q) => q.enqueue(item),
            AnyQueue::TwoQueue(q) => q.enqueue(item),
        }
    }
    fn head_deadline(&self) -> Option<SimTime> {
        match self {
            AnyQueue::Fifo(q) => q.head_deadline(),
            AnyQueue::Heap(q) => q.head_deadline(),
            AnyQueue::TwoQueue(q) => q.head_deadline(),
        }
    }
    fn peek(&self) -> Option<&T> {
        match self {
            AnyQueue::Fifo(q) => q.peek(),
            AnyQueue::Heap(q) => q.peek(),
            AnyQueue::TwoQueue(q) => q.peek(),
        }
    }
    fn dequeue(&mut self) -> Option<T> {
        match self {
            AnyQueue::Fifo(q) => q.dequeue(),
            AnyQueue::Heap(q) => q.dequeue(),
            AnyQueue::TwoQueue(q) => q.dequeue(),
        }
    }
    fn min_deadline(&self) -> Option<SimTime> {
        match self {
            AnyQueue::Fifo(q) => q.min_deadline(),
            AnyQueue::Heap(q) => q.min_deadline(),
            AnyQueue::TwoQueue(q) => q.min_deadline(),
        }
    }
    fn len(&self) -> usize {
        match self {
            AnyQueue::Fifo(q) => SchedQueue::len(q),
            AnyQueue::Heap(q) => SchedQueue::len(q),
            AnyQueue::TwoQueue(q) => SchedQueue::len(q),
        }
    }
    fn bytes(&self) -> u64 {
        match self {
            AnyQueue::Fifo(q) => SchedQueue::bytes(q),
            AnyQueue::Heap(q) => SchedQueue::bytes(q),
            AnyQueue::TwoQueue(q) => SchedQueue::bytes(q),
        }
    }
}

#[cfg(test)]
pub(crate) mod test_util {
    use super::Deadlined;
    use dqos_sim_core::SimTime;

    /// Minimal test item: a flow id, a per-flow sequence number, a
    /// deadline and a length.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Item {
        pub flow: u32,
        pub seq: u32,
        pub deadline: u64,
        pub len: u32,
    }

    impl Item {
        pub fn new(flow: u32, seq: u32, deadline: u64) -> Self {
            Item { flow, seq, deadline, len: 100 }
        }
    }

    impl Deadlined for Item {
        fn deadline(&self) -> SimTime {
            SimTime::from_ns(self.deadline)
        }
        fn len_bytes(&self) -> u32 {
            self.len
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_util::Item;
    use super::*;
    use dqos_core::SwitchQueueKind;

    #[test]
    fn any_queue_selects_structure() {
        let fifo: AnyQueue<Item> = AnyQueue::for_kind(SwitchQueueKind::Fifo);
        assert!(matches!(fifo, AnyQueue::Fifo(_)));
        let heap: AnyQueue<Item> = AnyQueue::for_kind(SwitchQueueKind::Heap);
        assert!(matches!(heap, AnyQueue::Heap(_)));
        let tq: AnyQueue<Item> = AnyQueue::for_kind(SwitchQueueKind::TwoQueue);
        assert!(matches!(tq, AnyQueue::TwoQueue(_)));
    }

    #[test]
    fn discipline_queries_reflect_structure() {
        let mut fifo: AnyQueue<Item> = AnyQueue::for_kind(SwitchQueueKind::Fifo);
        assert!(fifo.is_fifo());
        assert!(!fifo.candidate_is_take_over());
        fifo.enqueue(Item::new(0, 0, 50));
        assert!(!fifo.candidate_is_take_over());

        let mut tq: AnyQueue<Item> = AnyQueue::for_kind(SwitchQueueKind::TwoQueue);
        assert!(!tq.is_fifo());
        assert!(!tq.candidate_is_take_over());
        // An in-order arrival stays in the ordered queue...
        tq.enqueue(Item::new(0, 0, 50));
        assert!(!tq.candidate_is_take_over());
        // ...but a tighter-deadline late arrival rides the take-over queue
        // and becomes the candidate.
        tq.enqueue(Item::new(1, 0, 40));
        assert!(tq.candidate_is_take_over());
    }

    #[test]
    fn any_queue_dispatches() {
        for kind in [SwitchQueueKind::Fifo, SwitchQueueKind::Heap, SwitchQueueKind::TwoQueue] {
            let mut q: AnyQueue<Item> = AnyQueue::for_kind(kind);
            assert!(q.is_empty());
            q.enqueue(Item::new(0, 0, 50));
            q.enqueue(Item::new(0, 1, 60));
            assert_eq!(SchedQueue::len(&q), 2);
            assert_eq!(SchedQueue::bytes(&q), 200);
            assert_eq!(q.head_deadline(), Some(dqos_sim_core::SimTime::from_ns(50)));
            assert_eq!(q.peek().unwrap().deadline, 50);
            assert_eq!(q.dequeue().unwrap().deadline, 50);
            assert_eq!(q.dequeue().unwrap().deadline, 60);
            assert!(q.dequeue().is_none());
        }
    }
}
