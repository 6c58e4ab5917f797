//! Client-side fault tolerance: deadlines, retry with decorrelated-jitter
//! backoff, and a per-endpoint circuit breaker.
//!
//! The paper assumes a cooperative receiver; this module is the
//! non-cooperative half. A [`FaultPolicy`] describes the budget and retry
//! shape of one endpoint's calls; [`Resilience`] executes attempts under
//! that policy:
//!
//! * every call opens a [`Deadline`] from the policy budget and threads it
//!   through checkout, connect, and socket timeouts;
//! * retryable failures are re-attempted up to `max_retries` times, with
//!   decorrelated-jitter sleeps taken on the injected [`Clock`] — a
//!   [`VirtualClock`](bsoap_obs::VirtualClock) makes the entire schedule
//!   deterministic and sleep-free in tests;
//! * a [`CircuitBreaker`] trips open after `breaker_threshold` consecutive
//!   failures, fails calls fast during the cooldown, lets one half-open
//!   probe through, and closes again on success.
//!
//! Everything is observable: `RetriesAttempted`, `BreakerOpens`,
//! `BreakerFastFails` and `DeadlinesExceeded` counters plus `Retry` /
//! `BreakerTransition` / `DeadlineExceeded` trace events.

use bsoap_obs::{
    Backoff, BreakerState, Clock, Counter, Deadline, Metrics, MonotonicClock, Recorder, TraceKind,
};
use parking_lot::Mutex;
use std::io;
use std::sync::Arc;
use std::time::Duration;

/// Fault-tolerance policy for one endpoint's calls.
#[derive(Clone, Copy, Debug)]
pub struct FaultPolicy {
    /// Per-call budget across checkout + connect + write + response read.
    /// `None` leaves every step unbounded (the seed behavior).
    pub deadline: Option<Duration>,
    /// Retries beyond the first attempt. The pool's free single retry on
    /// a reused-stale socket does not count against this.
    pub max_retries: u32,
    /// Backoff floor.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Consecutive failures that trip the breaker (`0` disables it).
    pub breaker_threshold: u32,
    /// How long an open breaker fails fast before one half-open probe.
    pub breaker_cooldown: Duration,
    /// Seed for the jitter draw — schedules replay exactly per seed.
    pub backoff_seed: u64,
}

impl Default for FaultPolicy {
    /// Seed-compatible defaults: no deadline, no policy retries, breaker
    /// off. Only the legacy stale-socket retry remains active.
    fn default() -> Self {
        FaultPolicy {
            deadline: None,
            max_retries: 0,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_secs(1),
            breaker_threshold: 0,
            breaker_cooldown: Duration::from_secs(1),
            backoff_seed: 0x5EED_CAFE,
        }
    }
}

#[derive(Debug)]
struct BreakerInner {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at_ns: u64,
}

/// A per-endpoint circuit breaker driven by an injected [`Clock`].
///
/// Closed → (threshold consecutive failures) → Open → (cooldown elapses,
/// next `allow` becomes the probe) → HalfOpen → Closed on probe success,
/// back to Open on probe failure. With `threshold == 0` the breaker is
/// inert: `allow` is always true.
#[derive(Debug)]
pub struct CircuitBreaker {
    threshold: u32,
    cooldown_ns: u64,
    clock: Arc<dyn Clock>,
    inner: Mutex<BreakerInner>,
    metrics: Option<Arc<Metrics>>,
}

impl CircuitBreaker {
    /// Breaker tripping after `threshold` consecutive failures, cooling
    /// down for `cooldown` on `clock`.
    pub fn new(threshold: u32, cooldown: Duration, clock: Arc<dyn Clock>) -> Self {
        CircuitBreaker {
            threshold,
            cooldown_ns: cooldown.as_nanos() as u64,
            clock,
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                opened_at_ns: 0,
            }),
            metrics: None,
        }
    }

    /// Attach an observability registry (`BreakerOpens` counter plus
    /// transition trace events).
    pub fn set_metrics(&mut self, metrics: Arc<Metrics>) {
        self.metrics = Some(metrics);
    }

    /// May a call proceed? In the open state this is the fail-fast gate;
    /// once the cooldown elapses exactly one caller is admitted as the
    /// half-open probe (subsequent callers keep failing fast until the
    /// probe reports).
    pub fn allow(&self) -> bool {
        if self.threshold == 0 {
            return true;
        }
        let mut inner = self.inner.lock();
        match inner.state {
            BreakerState::Closed => true,
            BreakerState::HalfOpen => false, // probe already in flight
            BreakerState::Open => {
                let now = self.clock.now_ns();
                if now.saturating_sub(inner.opened_at_ns) >= self.cooldown_ns {
                    inner.state = BreakerState::HalfOpen;
                    self.trace_transition(BreakerState::HalfOpen);
                    true // this caller is the probe
                } else {
                    false
                }
            }
        }
    }

    /// Report a successful call: failures reset, a half-open probe closes
    /// the breaker.
    pub fn record_success(&self) {
        if self.threshold == 0 {
            return;
        }
        let mut inner = self.inner.lock();
        inner.consecutive_failures = 0;
        if inner.state != BreakerState::Closed {
            inner.state = BreakerState::Closed;
            self.trace_transition(BreakerState::Closed);
        }
    }

    /// Report a failed call: the failure streak grows; crossing the
    /// threshold (or failing the half-open probe) opens the breaker.
    pub fn record_failure(&self) {
        if self.threshold == 0 {
            return;
        }
        let mut inner = self.inner.lock();
        inner.consecutive_failures = inner.consecutive_failures.saturating_add(1);
        let trip = match inner.state {
            BreakerState::HalfOpen => true,
            BreakerState::Closed => inner.consecutive_failures >= self.threshold,
            BreakerState::Open => false,
        };
        if trip {
            inner.state = BreakerState::Open;
            inner.opened_at_ns = self.clock.now_ns();
            if let Some(m) = &self.metrics {
                m.add(Counter::BreakerOpens, 1);
            }
            self.trace_transition(BreakerState::Open);
        }
    }

    /// Current raw state (an elapsed cooldown still reads `Open` until the
    /// next `allow` promotes it).
    pub fn state(&self) -> BreakerState {
        self.inner.lock().state
    }

    fn trace_transition(&self, to: BreakerState) {
        if let Some(m) = &self.metrics {
            m.trace(TraceKind::BreakerTransition { to });
        }
    }
}

/// One failed attempt, as reported by the attempt closure.
#[derive(Debug)]
pub struct AttemptFailure {
    /// The I/O error the attempt died with.
    pub error: io::Error,
    /// Whether this failure qualifies for the legacy free retry (a reused
    /// pooled socket that went stale mid-exchange — the endpoint is not
    /// implicated, only the idle socket).
    pub free_retry: bool,
}

impl AttemptFailure {
    /// A failure with no free-retry claim.
    pub fn hard(error: io::Error) -> Self {
        AttemptFailure {
            error,
            free_retry: false,
        }
    }
}

/// Executes attempts under a [`FaultPolicy`]: deadline, breaker gate,
/// free stale-socket retry, then policy retries with jittered backoff.
#[derive(Debug)]
pub struct Resilience {
    policy: FaultPolicy,
    breaker: CircuitBreaker,
    clock: Arc<dyn Clock>,
    metrics: Option<Arc<Metrics>>,
}

impl Resilience {
    /// Executor for `policy` on the real clock.
    pub fn new(policy: FaultPolicy) -> Self {
        Self::with_clock(policy, Arc::new(MonotonicClock::new()))
    }

    /// Executor for `policy` on an injected clock (tests pass a
    /// [`VirtualClock`](bsoap_obs::VirtualClock): backoff sleeps advance
    /// it instead of blocking, and breaker cooldowns elapse on demand).
    pub fn with_clock(policy: FaultPolicy, clock: Arc<dyn Clock>) -> Self {
        Resilience {
            breaker: CircuitBreaker::new(
                policy.breaker_threshold,
                policy.breaker_cooldown,
                Arc::clone(&clock),
            ),
            policy,
            clock,
            metrics: None,
        }
    }

    /// Attach an observability registry (retry/deadline/breaker counters
    /// and trace events).
    pub fn set_metrics(&mut self, metrics: Arc<Metrics>) {
        self.breaker.set_metrics(Arc::clone(&metrics));
        self.metrics = Some(metrics);
    }

    /// The policy in force.
    pub fn policy(&self) -> &FaultPolicy {
        &self.policy
    }

    /// The breaker (state inspection in tests).
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// Run `attempt` until success, retry exhaustion, deadline expiry, or
    /// breaker fail-fast. The closure receives the call's [`Deadline`]
    /// (derive socket/connect timeouts from it) and the attempt ordinal.
    pub fn run<T>(
        &self,
        attempt: impl FnMut(&Deadline, u32) -> Result<T, AttemptFailure>,
    ) -> io::Result<T> {
        self.run_with(attempt, || {})
    }

    /// [`Resilience::run`] with a hook invoked each time the legacy free
    /// stale-socket retry is taken (the pool counts `PoolRetries` there).
    pub fn run_with<T>(
        &self,
        mut attempt: impl FnMut(&Deadline, u32) -> Result<T, AttemptFailure>,
        mut on_free_retry: impl FnMut(),
    ) -> io::Result<T> {
        let deadline = Deadline::from_budget(Arc::clone(&self.clock), self.policy.deadline);
        let mut backoff = Backoff::new(
            self.policy.backoff_base,
            self.policy.backoff_cap,
            self.policy.backoff_seed,
        );
        let mut free_used = false;
        let mut retries = 0u32;
        let mut attempt_no = 0u32;
        loop {
            // Deadline before breaker: `allow()` on an elapsed cooldown
            // admits this caller as the half-open probe, and a probe must
            // report back via record_success/record_failure. An expired
            // call runs no attempt and could never report, so it must
            // bail *before* it can be admitted — otherwise the breaker
            // wedges in HalfOpen ("probe in flight" forever).
            if deadline.expired() {
                return Err(self.deadline_exceeded());
            }
            if !self.breaker.allow() {
                if let Some(m) = &self.metrics {
                    m.add(Counter::BreakerFastFails, 1);
                }
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionRefused,
                    "circuit breaker open",
                ));
            }
            match attempt(&deadline, attempt_no) {
                Ok(v) => {
                    self.breaker.record_success();
                    return Ok(v);
                }
                Err(AttemptFailure { error, free_retry }) => {
                    self.breaker.record_failure();
                    attempt_no += 1;
                    if is_timeout(&error) && deadline.is_bounded() {
                        // Under a bounded deadline every socket timeout
                        // is sized to the remaining budget, so a timeout
                        // IS deadline expiry. Without a deadline a
                        // `TimedOut` came from somewhere else (an
                        // OS-level ETIMEDOUT, a user-set socket timeout)
                        // and falls through below, preserved as-is.
                        return Err(self.deadline_exceeded());
                    }
                    if free_retry && !free_used && stale_socket(&error) && !deadline.expired() {
                        free_used = true;
                        on_free_retry();
                        continue;
                    }
                    if retries < self.policy.max_retries
                        && policy_retryable(&error)
                        && !deadline.expired()
                    {
                        retries += 1;
                        let mut delay = backoff.next_delay();
                        if let Some(left) = deadline.remaining() {
                            delay = delay.min(left);
                        }
                        if let Some(m) = &self.metrics {
                            m.add(Counter::RetriesAttempted, 1);
                            m.trace(TraceKind::Retry {
                                attempt: retries as u64,
                                delay_ns: delay.as_nanos() as u64,
                            });
                        }
                        self.clock.sleep(delay);
                        continue;
                    }
                    return Err(error);
                }
            }
        }
    }

    fn deadline_exceeded(&self) -> io::Error {
        if let Some(m) = &self.metrics {
            m.add(Counter::DeadlinesExceeded, 1);
            m.trace(TraceKind::DeadlineExceeded);
        }
        Deadline::timed_out()
    }
}

/// Timeout spellings: `TimedOut` from `connect_timeout`, `WouldBlock`
/// from `SO_RCVTIMEO`/`SO_SNDTIMEO` on Unix.
pub(crate) fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
    )
}

/// Errors that signal a stale keep-alive socket rather than a down or
/// misbehaving endpoint (the legacy free-retry set).
pub(crate) fn stale_socket(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::BrokenPipe
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::NotConnected
            | io::ErrorKind::UnexpectedEof
            | io::ErrorKind::WriteZero
    )
}

/// Errors the retry policy considers transient: every stale-socket kind
/// plus connection refusal (a restarting endpoint).
pub(crate) fn policy_retryable(e: &io::Error) -> bool {
    stale_socket(e) || e.kind() == io::ErrorKind::ConnectionRefused
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsoap_obs::VirtualClock;

    fn vclock() -> Arc<VirtualClock> {
        Arc::new(VirtualClock::new())
    }

    fn policy() -> FaultPolicy {
        FaultPolicy {
            deadline: Some(Duration::from_secs(5)),
            max_retries: 3,
            backoff_base: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(200),
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_secs(1),
            backoff_seed: 7,
        }
    }

    fn reset() -> io::Error {
        io::Error::new(io::ErrorKind::ConnectionReset, "reset")
    }

    #[test]
    fn retries_then_succeeds_with_virtual_sleeps() {
        let clock = vclock();
        let metrics = Metrics::with_clock(clock.clone());
        let mut r = Resilience::with_clock(policy(), clock.clone());
        r.set_metrics(Arc::new(metrics));
        let mut fails = 2;
        let out = r
            .run(|_, attempt| {
                if fails > 0 {
                    fails -= 1;
                    Err(AttemptFailure::hard(reset()))
                } else {
                    Ok(attempt)
                }
            })
            .unwrap();
        assert_eq!(out, 2, "succeeded on the third attempt");
        // Backoff slept on the virtual clock — time moved, thread didn't.
        assert!(clock.now_ns() >= 2 * 10_000_000);
    }

    #[test]
    fn retry_schedule_is_deterministic_per_seed() {
        let run_schedule = |seed: u64| -> Vec<u64> {
            let clock = vclock();
            let metrics = Arc::new(Metrics::with_clock(clock.clone()));
            let mut p = policy();
            p.backoff_seed = seed;
            let mut r = Resilience::with_clock(p, clock.clone());
            r.set_metrics(Arc::clone(&metrics));
            let _ = r.run::<()>(|_, _| Err(AttemptFailure::hard(reset())));
            let (events, _) = metrics.trace_ring().snapshot();
            events
                .iter()
                .filter_map(|e| match e.kind {
                    TraceKind::Retry { delay_ns, .. } => Some(delay_ns),
                    _ => None,
                })
                .collect()
        };
        assert_eq!(run_schedule(11), run_schedule(11));
        assert_ne!(run_schedule(11), run_schedule(12));
    }

    #[test]
    fn exhausted_retries_return_last_error() {
        let clock = vclock();
        let r = Resilience::with_clock(
            FaultPolicy {
                breaker_threshold: 0,
                ..policy()
            },
            clock,
        );
        let mut attempts = 0;
        let err = r
            .run::<()>(|_, _| {
                attempts += 1;
                Err(AttemptFailure::hard(reset()))
            })
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        assert_eq!(attempts, 4, "1 try + 3 retries");
    }

    #[test]
    fn timeout_short_circuits_retries() {
        let clock = vclock();
        let metrics = Arc::new(Metrics::with_clock(clock.clone()));
        let mut r = Resilience::with_clock(policy(), clock);
        r.set_metrics(Arc::clone(&metrics));
        let mut attempts = 0;
        let err = r
            .run::<()>(|_, _| {
                attempts += 1;
                Err(AttemptFailure::hard(io::Error::new(
                    io::ErrorKind::WouldBlock,
                    "rcvtimeo",
                )))
            })
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert_eq!(attempts, 1, "budget spent — no point retrying");
        assert_eq!(metrics.snapshot().get(Counter::DeadlinesExceeded), 1);
    }

    #[test]
    fn deadline_expiry_stops_the_schedule() {
        let clock = vclock();
        let metrics = Arc::new(Metrics::with_clock(clock.clone()));
        let mut p = policy();
        p.deadline = Some(Duration::from_millis(25));
        p.max_retries = 100;
        p.breaker_threshold = 0;
        let mut r = Resilience::with_clock(p, clock.clone());
        r.set_metrics(Arc::clone(&metrics));
        let err = r
            .run::<()>(|_, _| Err(AttemptFailure::hard(reset())))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        let snap = metrics.snapshot();
        assert_eq!(snap.get(Counter::DeadlinesExceeded), 1);
        assert!(
            snap.get(Counter::RetriesAttempted) < 100,
            "deadline cut the schedule short"
        );
        // Sleeps were clamped to the remaining budget: virtual time did
        // not overshoot the deadline by more than the final clamp.
        assert!(clock.now_ns() <= 25_000_000 + 1);
    }

    #[test]
    fn breaker_opens_fails_fast_probes_and_recovers() {
        let clock = vclock();
        let metrics = Arc::new(Metrics::with_clock(clock.clone()));
        let mut p = policy();
        p.max_retries = 0;
        p.deadline = None;
        let mut r = Resilience::with_clock(p, clock.clone());
        r.set_metrics(Arc::clone(&metrics));

        // Three failing calls trip the breaker.
        for _ in 0..3 {
            let e = r
                .run::<()>(|_, _| Err(AttemptFailure::hard(reset())))
                .unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::ConnectionReset);
        }
        assert_eq!(r.breaker().state(), BreakerState::Open);
        assert_eq!(metrics.snapshot().get(Counter::BreakerOpens), 1);

        // Open: fail fast without running the attempt.
        let mut ran = false;
        let e = r
            .run::<()>(|_, _| {
                ran = true;
                Ok(())
            })
            .unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::ConnectionRefused);
        assert!(!ran, "attempt never executed while open");
        assert_eq!(metrics.snapshot().get(Counter::BreakerFastFails), 1);

        // Cooldown elapses on the virtual clock; the next call probes and
        // closes the breaker.
        clock.advance(1_000_000_000);
        r.run::<()>(|_, _| Ok(())).unwrap();
        assert_eq!(r.breaker().state(), BreakerState::Closed);

        let (events, _) = metrics.trace_ring().snapshot();
        let transitions: Vec<_> = events
            .iter()
            .filter_map(|e| match e.kind {
                TraceKind::BreakerTransition { to } => Some(to),
                _ => None,
            })
            .collect();
        assert_eq!(
            transitions,
            vec![
                BreakerState::Open,
                BreakerState::HalfOpen,
                BreakerState::Closed
            ]
        );
    }

    #[test]
    fn failed_probe_reopens() {
        let clock = vclock();
        let mut p = policy();
        p.max_retries = 0;
        p.deadline = None;
        let r = Resilience::with_clock(p, clock.clone());
        for _ in 0..3 {
            let _ = r.run::<()>(|_, _| Err(AttemptFailure::hard(reset())));
        }
        assert_eq!(r.breaker().state(), BreakerState::Open);
        clock.advance(1_000_000_000);
        let _ = r.run::<()>(|_, _| Err(AttemptFailure::hard(reset())));
        assert_eq!(r.breaker().state(), BreakerState::Open, "probe failed");
        // And it fails fast again until the next cooldown.
        let e = r.run::<()>(|_, _| Ok(())).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::ConnectionRefused);
    }

    #[test]
    fn half_open_admits_exactly_one_probe() {
        let clock = vclock();
        let breaker = CircuitBreaker::new(1, Duration::from_secs(1), clock.clone());
        breaker.record_failure();
        assert_eq!(breaker.state(), BreakerState::Open);
        clock.advance(1_000_000_000);
        assert!(breaker.allow(), "first caller is the probe");
        assert!(!breaker.allow(), "second caller fails fast");
        assert!(!breaker.allow());
        breaker.record_success();
        assert!(breaker.allow(), "closed after probe success");
    }

    #[test]
    fn expired_deadline_never_wedges_a_cooling_breaker() {
        // Regression: a retry backoff sleep that both elapses the breaker
        // cooldown and exhausts the deadline must NOT let the expired
        // call be admitted as the half-open probe (it runs no attempt, so
        // it could never report back and the breaker would stay HalfOpen
        // — "probe in flight" — forever).
        let clock = vclock();
        let p = FaultPolicy {
            deadline: Some(Duration::from_millis(25)),
            max_retries: 1,
            backoff_base: Duration::from_millis(100), // clamps to remaining
            backoff_cap: Duration::from_millis(100),
            breaker_threshold: 1,
            breaker_cooldown: Duration::from_millis(20),
            backoff_seed: 7,
        };
        let r = Resilience::with_clock(p, clock.clone());
        // One failing attempt trips the breaker; the retry sleep is
        // clamped to the remaining 25ms, which also outlasts the 20ms
        // cooldown — the loop re-enters with the deadline spent.
        let err = r
            .run::<()>(|_, _| Err(AttemptFailure::hard(reset())))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert_eq!(
            r.breaker().state(),
            BreakerState::Open,
            "the expired call must not have been admitted as the probe"
        );
        // A later healthy call gets the probe slot and closes the breaker
        // — with the probe slot leaked this would fail fast forever.
        clock.advance(20_000_000);
        r.run::<()>(|_, _| Ok(())).unwrap();
        assert_eq!(r.breaker().state(), BreakerState::Closed);
    }

    #[test]
    fn bare_timeout_without_a_deadline_stays_a_plain_io_error() {
        // With no deadline in force, socket timeouts are never set by the
        // policy, so a TimedOut attempt error (an OS-level ETIMEDOUT, a
        // user-set socket timeout) is NOT deadline expiry: it must pass
        // through unconverted and uncounted.
        let clock = vclock();
        let metrics = Arc::new(Metrics::with_clock(clock.clone()));
        let mut p = policy();
        p.deadline = None;
        p.breaker_threshold = 0;
        let mut r = Resilience::with_clock(p, clock);
        r.set_metrics(Arc::clone(&metrics));
        let mut attempts = 0;
        let err = r
            .run::<()>(|_, _| {
                attempts += 1;
                Err(AttemptFailure::hard(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "ETIMEDOUT",
                )))
            })
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert!(
            !Deadline::is_deadline_error(&err),
            "no marker: this is not a budget expiry"
        );
        assert_eq!(attempts, 1, "timeouts are not policy-retryable");
        assert_eq!(metrics.snapshot().get(Counter::DeadlinesExceeded), 0);
    }

    #[test]
    fn free_retry_does_not_consume_policy_budget() {
        let clock = vclock();
        let mut p = policy();
        p.max_retries = 1;
        p.breaker_threshold = 0;
        let r = Resilience::with_clock(p, clock);
        let mut attempts = 0;
        let mut free_retries = 0;
        let err = r
            .run_with::<()>(
                |_, _| {
                    attempts += 1;
                    Err(AttemptFailure {
                        error: reset(),
                        free_retry: attempts == 1,
                    })
                },
                || free_retries += 1,
            )
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        assert_eq!(free_retries, 1);
        assert_eq!(attempts, 3, "1 try + 1 free retry + 1 policy retry");
    }
}
