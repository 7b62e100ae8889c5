//! Output-port arbitration policies.
//!
//! For each output port the arbiter chooses among **candidates** — the
//! head packets of the input VOQ sub-queues heading to that output.
//!
//! * [`pick_edf`] — the paper's EDF approximation: choose the candidate
//!   with the smallest deadline *among queue heads*. With deadline-sorted
//!   arrivals this equals true EDF (the merge-sort argument of §3.2);
//!   ties break deterministically by input index.
//! * [`pick_round_robin`] — *Traditional 2 VCs*: rotate over inputs,
//!   ignoring deadlines.

use dqos_sim_core::SimTime;

/// One arbitration candidate: an input port offering its head packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// Offering input port index.
    pub input: usize,
    /// Deadline of the head packet (ignored by round-robin).
    pub deadline: SimTime,
}

/// EDF over queue heads: the minimum-deadline candidate, ties to the
/// lowest input index.
pub fn pick_edf(candidates: &[Candidate]) -> Option<usize> {
    candidates
        .iter()
        .min_by_key(|c| (c.deadline, c.input))
        .map(|c| c.input)
}

/// Round-robin: the first candidate at or after `*ptr`, then advance the
/// pointer past the winner.
pub fn pick_round_robin(candidates: &[Candidate], n_inputs: usize, ptr: &mut usize) -> Option<usize> {
    if candidates.is_empty() {
        return None;
    }
    debug_assert!(*ptr < n_inputs.max(1));
    // Scan inputs ptr, ptr+1, ..., wrapping, and take the first that is a
    // candidate. Candidate lists are tiny (≤ 16), linear scan is fine.
    for off in 0..n_inputs {
        let i = (*ptr + off) % n_inputs;
        if candidates.iter().any(|c| c.input == i) {
            *ptr = (i + 1) % n_inputs;
            return Some(i);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(input: usize, deadline: u64) -> Candidate {
        Candidate { input, deadline: SimTime::from_ns(deadline) }
    }

    #[test]
    fn edf_picks_minimum() {
        let cands = [c(0, 300), c(1, 100), c(2, 200)];
        assert_eq!(pick_edf(&cands), Some(1));
    }

    #[test]
    fn edf_tie_breaks_by_input() {
        let cands = [c(2, 100), c(0, 100), c(1, 100)];
        assert_eq!(pick_edf(&cands), Some(0));
    }

    #[test]
    fn edf_empty() {
        assert_eq!(pick_edf(&[]), None);
    }

    #[test]
    fn round_robin_rotates() {
        let mut ptr = 0;
        let cands = [c(0, 1), c(1, 1), c(3, 1)];
        assert_eq!(pick_round_robin(&cands, 4, &mut ptr), Some(0));
        assert_eq!(ptr, 1);
        assert_eq!(pick_round_robin(&cands, 4, &mut ptr), Some(1));
        assert_eq!(ptr, 2);
        // Input 2 not a candidate: skip to 3.
        assert_eq!(pick_round_robin(&cands, 4, &mut ptr), Some(3));
        assert_eq!(ptr, 0);
        // Wraps back to 0.
        assert_eq!(pick_round_robin(&cands, 4, &mut ptr), Some(0));
    }

    #[test]
    fn round_robin_is_deadline_blind() {
        let mut ptr = 0;
        // Input 1 has the urgent packet, but RR picks 0 first.
        let cands = [c(0, 1_000_000), c(1, 1)];
        assert_eq!(pick_round_robin(&cands, 2, &mut ptr), Some(0));
    }

    #[test]
    fn round_robin_empty() {
        let mut ptr = 0;
        assert_eq!(pick_round_robin(&[], 4, &mut ptr), None);
        assert_eq!(ptr, 0);
    }

    #[test]
    fn round_robin_single_candidate_any_ptr() {
        for start in 0..8 {
            let mut ptr = start;
            assert_eq!(pick_round_robin(&[c(5, 9)], 8, &mut ptr), Some(5));
            assert_eq!(ptr, 6);
        }
    }

    /// Randomized property checks, driven by the in-house RNG.
    mod randomized {
        use super::*;
        use dqos_sim_core::SimRng;

        /// EDF always returns the candidate with the smallest
        /// (deadline, input) pair.
        #[test]
        fn edf_is_min() {
            let mut rng = SimRng::new(0xA6B1);
            for _ in 0..500 {
                let mut seen = std::collections::HashSet::new();
                let cands: Vec<Candidate> = (0..1 + rng.index(15))
                    .map(|_| (rng.index(16), rng.range_u64(0, 9_999)))
                    .filter(|(i, _)| seen.insert(*i))
                    .map(|(input, d)| c(input, d))
                    .collect();
                let winner = pick_edf(&cands).unwrap();
                let wd = cands.iter().find(|x| x.input == winner).unwrap().deadline;
                for x in &cands {
                    assert!(
                        (wd, winner) <= (x.deadline, x.input),
                        "candidate {x:?} beats winner {winner} @ {wd:?}"
                    );
                }
            }
        }

        /// Round-robin with a persistent candidate set is fair: over
        /// n_rounds = k * |set| picks, every candidate wins exactly k.
        #[test]
        fn round_robin_fair() {
            let mut rng = SimRng::new(0x66A1);
            for _ in 0..200 {
                let mut inputs = std::collections::HashSet::new();
                for _ in 0..1 + rng.index(11) {
                    inputs.insert(rng.index(12));
                }
                let k = 1 + rng.index(4);
                let cands: Vec<Candidate> = inputs.iter().map(|&i| c(i, 1)).collect();
                let mut ptr = 0;
                let mut wins = std::collections::HashMap::new();
                for _ in 0..k * cands.len() {
                    let w = pick_round_robin(&cands, 12, &mut ptr).unwrap();
                    *wins.entry(w).or_insert(0usize) += 1;
                }
                for &i in &inputs {
                    assert_eq!(wins.get(&i).copied().unwrap_or(0), k, "input {i} starved");
                }
            }
        }

        /// The round-robin pointer always stays in range.
        #[test]
        fn round_robin_ptr_in_range() {
            let mut rng = SimRng::new(0x3019);
            let mut ptr = 0;
            for _ in 0..1_000 {
                let mut seen = std::collections::HashSet::new();
                let cands: Vec<Candidate> = (0..rng.index(8))
                    .map(|_| rng.index(8))
                    .filter(|i| seen.insert(*i))
                    .map(|i| c(i, 1))
                    .collect();
                let _ = pick_round_robin(&cands, 8, &mut ptr);
                assert!(ptr < 8);
            }
        }
    }
}
