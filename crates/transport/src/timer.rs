//! Deadline-ordered timer wheel for the event-loop server core.
//!
//! Each loop thread owns one wheel. Entries are keyed by
//! `(deadline_ns, seq)` in a `BTreeMap`, so the earliest deadline is the
//! first key — `epoll_wait`'s timeout is clamped to it and expired
//! entries pop in firing order. A connection holds at most one timer per
//! [`TimerKind`]; re-arming a kind replaces the previous deadline (this
//! is how a read-stall timer slides forward on every byte of progress).
//!
//! Deadlines are nanosecond readings of the metrics clock
//! (`Recorder::now_ns`), so a `VirtualClock` drives timers in tests
//! exactly as wall time does in production.

use std::collections::{BTreeMap, HashMap};

/// Which deadline a timer entry enforces.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TimerKind {
    /// No read progress for `read_timeout` (slow-loris eviction; also
    /// covers the between-requests gap).
    ReadStall,
    /// Whole-request budget (`request_timeout`), armed at the first byte
    /// of a request head and canceled when the request completes.
    RequestBudget,
    /// Idle keep-alive reaper (`idle_timeout`), armed only while the
    /// connection sits between requests with an empty buffer.
    IdleReap,
}

impl TimerKind {
    /// Every kind, in declaration order (so `kind as usize` indexes it).
    pub(crate) const ALL: [TimerKind; 3] = [
        TimerKind::ReadStall,
        TimerKind::RequestBudget,
        TimerKind::IdleReap,
    ];
}

/// Deadline-ordered timer store: O(log n) arm/cancel, O(1) peek.
#[derive(Debug, Default)]
pub struct TimerWheel {
    /// `(deadline_ns, seq) → (token, kind)`; seq breaks deadline ties in
    /// arming order.
    entries: BTreeMap<(u64, u64), (u64, TimerKind)>,
    /// Reverse index for cancel/re-arm.
    index: HashMap<(u64, TimerKind), (u64, u64)>,
    seq: u64,
}

impl TimerWheel {
    /// Empty wheel.
    pub fn new() -> TimerWheel {
        TimerWheel::default()
    }

    /// Arm (or slide) the `kind` timer for `token` to `deadline_ns`.
    pub fn arm(&mut self, token: u64, kind: TimerKind, deadline_ns: u64) {
        self.cancel(token, kind);
        let key = (deadline_ns, self.seq);
        self.seq += 1;
        self.entries.insert(key, (token, kind));
        self.index.insert((token, kind), key);
    }

    /// Cancel the `kind` timer for `token`, if armed.
    pub fn cancel(&mut self, token: u64, kind: TimerKind) {
        if let Some(key) = self.index.remove(&(token, kind)) {
            self.entries.remove(&key);
        }
    }

    /// Cancel every timer held by `token` (connection teardown).
    pub fn cancel_all(&mut self, token: u64) {
        for kind in TimerKind::ALL {
            self.cancel(token, kind);
        }
    }

    /// Earliest armed deadline, if any.
    pub fn next_deadline_ns(&self) -> Option<u64> {
        self.entries.keys().next().map(|(d, _)| *d)
    }

    /// Pop every entry with `deadline_ns <= now_ns` into `out` (cleared
    /// first), in firing order.
    pub fn pop_expired(&mut self, now_ns: u64, out: &mut Vec<(u64, TimerKind)>) {
        out.clear();
        while let Some((&key, &(token, kind))) = self.entries.iter().next() {
            if key.0 > now_ns {
                break;
            }
            self.entries.remove(&key);
            self.index.remove(&(token, kind));
            out.push((token, kind));
        }
    }

    /// Number of armed timers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no timers are armed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_in_deadline_order_with_stable_ties() {
        let mut w = TimerWheel::new();
        w.arm(1, TimerKind::ReadStall, 300);
        w.arm(2, TimerKind::ReadStall, 100);
        w.arm(3, TimerKind::IdleReap, 100); // same deadline, armed later
        assert_eq!(w.next_deadline_ns(), Some(100));

        let mut fired = Vec::new();
        w.pop_expired(100, &mut fired);
        assert_eq!(
            fired,
            vec![(2, TimerKind::ReadStall), (3, TimerKind::IdleReap)]
        );
        assert_eq!(w.next_deadline_ns(), Some(300));
        w.pop_expired(299, &mut fired);
        assert!(fired.is_empty());
        w.pop_expired(300, &mut fired);
        assert_eq!(fired, vec![(1, TimerKind::ReadStall)]);
        assert!(w.is_empty());
    }

    #[test]
    fn rearm_slides_the_deadline() {
        let mut w = TimerWheel::new();
        w.arm(7, TimerKind::ReadStall, 50);
        w.arm(7, TimerKind::ReadStall, 500); // progress: slide forward
        assert_eq!(w.len(), 1);
        let mut fired = Vec::new();
        w.pop_expired(499, &mut fired);
        assert!(fired.is_empty(), "old deadline must not fire");
        w.pop_expired(500, &mut fired);
        assert_eq!(fired, vec![(7, TimerKind::ReadStall)]);
    }

    #[test]
    fn cancel_and_cancel_all_remove_entries() {
        let mut w = TimerWheel::new();
        w.arm(1, TimerKind::ReadStall, 10);
        w.arm(1, TimerKind::RequestBudget, 20);
        w.arm(2, TimerKind::IdleReap, 30);
        w.cancel(1, TimerKind::ReadStall);
        assert_eq!(w.len(), 2);
        w.cancel_all(1);
        assert_eq!(w.len(), 1);
        assert_eq!(w.next_deadline_ns(), Some(30));
        w.cancel(2, TimerKind::ReadStall); // not armed: no-op
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn distinct_kinds_per_token_coexist() {
        let mut w = TimerWheel::new();
        w.arm(9, TimerKind::ReadStall, 40);
        w.arm(9, TimerKind::RequestBudget, 120);
        w.arm(9, TimerKind::ReadStall, 80); // slides only ReadStall
        let mut fired = Vec::new();
        w.pop_expired(200, &mut fired);
        assert_eq!(
            fired,
            vec![(9, TimerKind::ReadStall), (9, TimerKind::RequestBudget)]
        );
    }
}
