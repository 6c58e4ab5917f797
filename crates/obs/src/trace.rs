//! Bounded trace-event ring buffer.
//!
//! Every interesting moment on the hot path can drop a [`TraceEvent`] into
//! the ring: per-send spans (tier chosen, dirty count, bytes shifted,
//! chunks split/merged, DUT fix-ups), pool checkouts/reconnects, server
//! accepts and evictions. The ring is bounded — when full, the oldest event is
//! evicted and a drop counter ticks, so tracing can never grow memory
//! under load.

use crate::Tier;
use std::collections::VecDeque;
use std::sync::Mutex;

/// What happened.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// One differential send, end to end.
    SendSpan {
        /// Tier the matching phase chose.
        tier: Tier,
        /// DUT entries dirty at flush time.
        dirty: u64,
        /// Values actually rewritten.
        values_written: u64,
        /// Bytes moved by shifting.
        shifted_bytes: u64,
        /// Shift operations.
        shifts: u64,
        /// Steal operations (gap taken from a neighbor's padding).
        steals: u64,
        /// Chunk splits forced by expansion.
        splits: u64,
        /// DUT entries whose location was fixed up after shifts/splits.
        dut_fixups: u64,
        /// Bytes on the wire for this send.
        bytes: u64,
        /// Wall (or virtual) time the send took.
        elapsed_ns: u64,
    },
    /// A connection-pool checkout.
    PoolCheckout {
        /// Whether an idle pooled connection was reused.
        reused: bool,
    },
    /// The pool replaced a stale connection after a failed attempt.
    PoolReconnect,
    /// One server request handled.
    Request {
        /// Response bytes written.
        bytes: u64,
        /// Handling time.
        elapsed_ns: u64,
    },
    /// A failed attempt is being retried after a backoff sleep.
    Retry {
        /// Attempt number about to run (1 = first retry).
        attempt: u64,
        /// Backoff slept before this attempt.
        delay_ns: u64,
    },
    /// The per-endpoint circuit breaker changed state.
    BreakerTransition {
        /// State entered.
        to: BreakerState,
    },
    /// A call ran out of its deadline budget.
    DeadlineExceeded,
    /// The client entered (`true`) or left (`false`) degraded mode for an
    /// endpoint: stateless full-serialization sends, no template kept.
    Degraded {
        /// Whether degraded mode is now on.
        on: bool,
    },
    /// The event-loop server core accepted a connection.
    Accept {
        /// Loop-assigned connection id.
        conn_id: u64,
    },
    /// The event-loop core evicted a connection (stall/budget timeout or
    /// idle reap).
    Evict {
        /// Loop-assigned connection id.
        conn_id: u64,
        /// Whether the connection was idle between requests when evicted.
        idle: bool,
    },
    /// Graceful drain began on the event-loop core.
    Drain {
        /// Connections still open when the drain started.
        in_flight: u64,
    },
}

/// Circuit-breaker states (see `bsoap-transport`'s breaker; mirrored here
/// so trace events stay in the leaf crate).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BreakerState {
    /// Healthy: calls flow.
    Closed,
    /// Tripped: calls fail fast until the cooldown elapses.
    Open,
    /// Cooldown elapsed: one probe call is allowed through.
    HalfOpen,
}

/// A timestamped trace event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Clock reading when the event was recorded.
    pub ts_ns: u64,
    /// Event payload.
    pub kind: TraceKind,
}

#[derive(Debug, Default)]
struct RingState {
    buf: VecDeque<TraceEvent>,
    dropped: u64,
}

/// Bounded ring of trace events.
#[derive(Debug)]
pub struct TraceRing {
    cap: usize,
    state: Mutex<RingState>,
}

impl TraceRing {
    /// Ring holding at most `cap` events (cap 0 disables tracing).
    pub fn new(cap: usize) -> Self {
        TraceRing {
            cap,
            state: Mutex::new(RingState::default()),
        }
    }

    /// Capacity in events.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Push an event, evicting the oldest when full.
    pub fn push(&self, ev: TraceEvent) {
        if self.cap == 0 {
            return;
        }
        let mut st = self.state.lock().unwrap();
        if st.buf.len() == self.cap {
            st.buf.pop_front();
            st.dropped += 1;
        }
        st.buf.push_back(ev);
    }

    /// Events currently buffered, oldest first, plus the evicted count.
    pub fn snapshot(&self) -> (Vec<TraceEvent>, u64) {
        let st = self.state.lock().unwrap();
        (st.buf.iter().cloned().collect(), st.dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts: u64) -> TraceEvent {
        TraceEvent {
            ts_ns: ts,
            kind: TraceKind::PoolReconnect,
        }
    }

    #[test]
    fn ring_is_bounded_and_ordered() {
        let ring = TraceRing::new(3);
        for t in 0..5 {
            ring.push(ev(t));
        }
        let (events, dropped) = ring.snapshot();
        assert_eq!(dropped, 2);
        let ts: Vec<u64> = events.iter().map(|e| e.ts_ns).collect();
        assert_eq!(ts, vec![2, 3, 4]);
    }

    #[test]
    fn zero_capacity_discards() {
        let ring = TraceRing::new(0);
        ring.push(ev(1));
        let (events, dropped) = ring.snapshot();
        assert!(events.is_empty());
        assert_eq!(dropped, 0);
    }
}
