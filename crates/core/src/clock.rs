//! Clock-synchronisation avoidance via time-to-destination (TTD), §3.3.
//!
//! Deadlines are absolute timestamps, which would require every host and
//! switch to share a synchronised clock. The paper's workaround: when a
//! packet leaves a node, the header carries `TTD = D − T_local` (time
//! remaining until the deadline, a *relative* quantity that needs no
//! synchronisation). The next hop reconstructs a locally meaningful
//! deadline as `D' = TTD + T'_local` and schedules with that. Each node
//! therefore sees deadlines in its own clock domain; only *differences*
//! between deadlines matter for EDF ordering, and those are preserved
//! exactly — a property the integration tests verify by running whole
//! simulations under arbitrary per-node clock offsets and asserting
//! bit-identical results.

use dqos_sim_core::SimTime;

/// Time-to-destination: the header field that replaces the absolute
/// deadline on the wire. Negative values mean the deadline has already
/// passed (the packet is late but still delivered — the fabric is
/// lossless).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Ttd(pub i64);

/// A node's local clock: `local = global + offset`.
///
/// The simulator keeps a hidden global clock (event timestamps); each
/// node observes it through its own [`ClockDomain`]. With `offset = 0`
/// everywhere this degenerates to synchronised clocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClockDomain {
    /// Nanoseconds this node's clock is ahead of the global clock
    /// (may be negative).
    pub offset: i64,
    /// Rate skew in parts per million: the local clock advances
    /// `1 + skew_ppm/1e6` local nanoseconds per global nanosecond. Zero
    /// (the default everywhere outside fault-injection runs) preserves
    /// the original pure-offset arithmetic bit for bit.
    pub skew_ppm: i32,
}

impl ClockDomain {
    /// A perfectly synchronised clock.
    pub const SYNCED: ClockDomain = ClockDomain { offset: 0, skew_ppm: 0 };

    /// Create a domain with the given offset (no rate skew).
    pub fn new(offset: i64) -> Self {
        ClockDomain { offset, skew_ppm: 0 }
    }

    /// Create a domain with an offset and a rate skew (fault injection's
    /// clock-drift model).
    pub fn with_skew(offset: i64, skew_ppm: i32) -> Self {
        ClockDomain { offset, skew_ppm }
    }

    /// The local reading of a global timestamp.
    #[inline]
    pub fn local(&self, global: SimTime) -> SimTime {
        if self.skew_ppm == 0 {
            let v = global.as_ns() as i64 + self.offset;
            debug_assert!(v >= 0, "local clock underflow: offset too negative for this time");
            return SimTime::from_ns(v as u64);
        }
        let g = global.as_ns() as i128;
        let v = g + self.offset as i128 + g * self.skew_ppm as i128 / 1_000_000;
        debug_assert!(v >= 0, "local clock underflow: offset too negative for this time");
        SimTime::from_ns(v as u64)
    }

    /// The global timestamp a local reading corresponds to (inverse of
    /// [`ClockDomain::local`]; the simulator uses it to schedule events
    /// that nodes request in their own domain).
    ///
    /// With a rate skew the inverse involves integer division and may be
    /// off by one nanosecond from a strict round trip — deterministic,
    /// and harmless at simulation granularity. The division rounds *up*
    /// so that `local(global_of(l)) >= l` always holds: a node asking to
    /// be woken at local time `l` must not observe a pre-`l` clock when
    /// the wake fires, or it would re-request the identical wake forever
    /// (a same-tick livelock the stall watchdog catches).
    #[inline]
    pub fn global_of(&self, local: SimTime) -> SimTime {
        if self.skew_ppm == 0 {
            let v = local.as_ns() as i64 - self.offset;
            debug_assert!(v >= 0, "global clock underflow");
            return SimTime::from_ns(v as u64);
        }
        let l = local.as_ns() as i128 - self.offset as i128;
        let rate = 1_000_000 + self.skew_ppm as i128;
        let v = (l * 1_000_000 + rate - 1).div_euclid(rate);
        debug_assert!(v >= 0, "global clock underflow");
        SimTime::from_ns(v as u64)
    }

    /// Encode a local-domain deadline into the TTD header field at local
    /// departure time `now_local`.
    #[inline]
    pub fn encode_ttd(deadline_local: SimTime, now_local: SimTime) -> Ttd {
        Ttd(deadline_local.as_ns() as i64 - now_local.as_ns() as i64)
    }

    /// Reconstruct a deadline in *this* domain from a received TTD at
    /// local arrival time `now_local`.
    ///
    /// Late packets (negative TTD) clamp to the arrival instant: they are
    /// maximally urgent.
    #[inline]
    pub fn decode_ttd(ttd: Ttd, now_local: SimTime) -> SimTime {
        let v = now_local.as_ns() as i64 + ttd.0;
        SimTime::from_ns(v.max(0) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synced_domain_is_identity() {
        let d = ClockDomain::SYNCED;
        assert_eq!(d.local(SimTime::from_us(5)), SimTime::from_us(5));
    }

    #[test]
    fn offset_shifts_local_view() {
        let ahead = ClockDomain::new(1_000);
        assert_eq!(ahead.local(SimTime::from_ns(500)), SimTime::from_ns(1_500));
        let behind = ClockDomain::new(-200);
        assert_eq!(behind.local(SimTime::from_ns(500)), SimTime::from_ns(300));
    }

    #[test]
    fn skewed_clock_runs_fast_or_slow() {
        let fast = ClockDomain::with_skew(0, 1_000); // +0.1%
        assert_eq!(fast.local(SimTime::from_ms(1)), SimTime::from_ns(1_001_000));
        let slow = ClockDomain::with_skew(0, -1_000);
        assert_eq!(slow.local(SimTime::from_ms(1)), SimTime::from_ns(999_000));
        // Offset composes with skew.
        let both = ClockDomain::with_skew(500, 1_000);
        assert_eq!(both.local(SimTime::from_ms(1)), SimTime::from_ns(1_001_500));
    }

    #[test]
    fn skewed_global_of_inverts_within_a_nanosecond() {
        for ppm in [-5_000i32, -37, 0, 1, 250, 10_000] {
            let d = ClockDomain::with_skew(1_234, ppm);
            for g in [0u64, 1, 999, 1_000_000, 987_654_321, 60_000_000_000] {
                let g = SimTime::from_ns(g);
                let back = d.global_of(d.local(g));
                let err = back.as_ns().abs_diff(g.as_ns());
                assert!(err <= 1, "ppm {ppm} t {g:?}: round trip off by {err}");
            }
        }
    }

    #[test]
    fn skewed_wake_requests_never_fire_early() {
        // local(global_of(l)) >= l: the scheduling contract. If this ever
        // regresses, a node waking "at local l" sees a pre-l clock and
        // re-requests the same wake — a same-tick livelock.
        for ppm in [-5_000i32, -37, 1, 250, 10_000] {
            let d = ClockDomain::with_skew(-321, ppm);
            for l in [1u64, 999, 1_000_001, 987_654_321, 60_000_000_000] {
                let l = SimTime::from_ns(l);
                assert!(d.local(d.global_of(l)) >= l, "ppm {ppm}, local {l:?}");
            }
        }
    }

    #[test]
    fn zero_skew_matches_pure_offset_arithmetic_exactly() {
        let a = ClockDomain::new(7_777);
        let b = ClockDomain::with_skew(7_777, 0);
        for g in [0u64, 5, 123_456_789] {
            let g = SimTime::from_ns(g);
            assert_eq!(a.local(g), b.local(g));
            assert_eq!(a.global_of(a.local(g)), g);
        }
    }

    #[test]
    fn ttd_roundtrip_same_domain() {
        let deadline = SimTime::from_us(50);
        let depart = SimTime::from_us(30);
        let ttd = ClockDomain::encode_ttd(deadline, depart);
        assert_eq!(ttd, Ttd(20_000));
        // Zero-latency hop in the same domain reconstructs exactly.
        assert_eq!(ClockDomain::decode_ttd(ttd, depart), deadline);
    }

    #[test]
    fn late_packet_ttd_is_negative_and_clamps() {
        let ttd = ClockDomain::encode_ttd(SimTime::from_us(10), SimTime::from_us(15));
        assert_eq!(ttd, Ttd(-5_000));
        // Reconstructed deadline is in the past relative to arrival.
        let d = ClockDomain::decode_ttd(ttd, SimTime::from_us(20));
        assert_eq!(d, SimTime::from_us(15));
    }

    /// Randomized property: the EDF order of two packets
    /// is invariant under TTD transport between any two clock domains,
    /// regardless of offsets and wire latency.
    #[test]
    fn randomized_ttd_preserves_edf_order() {
        use dqos_sim_core::SimRng;
        let mut rng = SimRng::new(0x77D0);
        for _ in 0..2_000 {
            let off_tx = rng.range_u64(0, 2_000_000) as i64 - 1_000_000;
            let off_rx = rng.range_u64(0, 2_000_000) as i64 - 1_000_000;
            let tx = ClockDomain::new(off_tx);
            let rx = ClockDomain::new(off_rx);
            let d_a = rng.range_u64(0, 999_999_999) as i64;
            let gap = rng.range_u64(1, 999_999) as i64;
            let depart = rng.range_u64(0, 999_999_999);
            let latency = rng.range_u64(0, 999_999);
            let global_depart = SimTime::from_ns(depart + 2_000_000);
            let now_tx = tx.local(global_depart);
            // Two deadlines in the sender's domain, A earlier than B.
            let da = SimTime::from_ns((d_a + 2_000_000) as u64);
            let db = SimTime::from_ns((d_a + gap + 2_000_000) as u64);
            let ta = ClockDomain::encode_ttd(da, now_tx);
            let tb = ClockDomain::encode_ttd(db, now_tx);
            let global_arrive = global_depart + dqos_sim_core::SimDuration::from_ns(latency);
            let now_rx = rx.local(global_arrive);
            let ra = ClockDomain::decode_ttd(ta, now_rx);
            let rb = ClockDomain::decode_ttd(tb, now_rx);
            // Order preserved (ties only possible through the lateness
            // clamp, which maps both to "urgent now").
            assert!(ra <= rb);
            // When neither clamps, the *gap* is preserved exactly.
            if ta.0 + (now_rx.as_ns() as i64) >= 0 {
                assert_eq!(rb.as_ns() - ra.as_ns(), gap as u64);
            }
        }
    }
}
