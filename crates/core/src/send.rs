//! The tiered send — one body for both sides of the wire.
//!
//! "Differential serialization … could be used equally well by a server
//! sending identical (or similar) responses" (§3): a client call and a
//! server response are the same operation over a [`TemplateStore`], so
//! they are the same function. [`TemplateStore::send`] finds a saved
//! template (this key's best variant, or — §6 — a clone of a sibling
//! endpoint's), diffs the arguments against it, plans, asks the §5 cost
//! gate, patches and hands the bytes over; with nothing saved (or the gate
//! saying a rebuild is cheaper) it serializes from scratch. `Client::call_via`
//! and `bsoap-server`'s dispatch are its only callers; they differ in what
//! "hand the bytes over" means (write to a transport / flatten into the
//! response buffer) and in how many variants they keep.
//!
//! ## What a send counts, and when
//!
//! * **When the bytes exist** — the message is fully serialized in the
//!   template, before anyone is asked to take it — the send ticks its tier
//!   (`bsoap_sends_total{tier}`), its lane (`SendsXml`/`SendsBinary`),
//!   `ValuesWritten` and `SimdKernelHits`. `count_serialized` is that
//!   fold, for every tier, on both sides, and for an overlaid send. A send
//!   whose transport then fails has still serialized, and has still
//!   counted.
//! * **When the transport took them** — the caller's hand-off returned
//!   `Ok` — the client ticks `BytesSent`, the per-tier latency histogram
//!   and its `ClientStats` (`Client`'s settle step; a server's bytes are
//!   counted by its transport as `ServerBytesOut`).
//!
//! What is saved does not depend on the counters: a template that came out
//! of the store goes back whatever the transport said (the flush already
//! applied the new values), a fresh one — built or cloned — is saved only
//! once delivered, so a failure before the first save leaves no template.

use crate::config::EngineConfig;
use crate::error::EngineError;
use crate::lane::WireFormat;
use crate::schema::{CheckedArgs, OpDesc};
use crate::store::{Checkout, StoreKey, TemplateStore};
use crate::template::{MessageTemplate, SendReport, SendTier};
use crate::value::Value;
use bsoap_obs::{Counter, Metrics, Recorder};
use std::io::IoSlice;
use std::sync::Arc;

/// The serialization half of the accounting rule (module docs): one send's
/// tier, lane, values and SIMD kernel hits, ticked the moment its bytes
/// exist. The only place a send tier is counted.
pub(crate) fn count_serialized(m: &Metrics, lane: WireFormat, tier: SendTier, values: usize) {
    m.add(Counter::send(tier), 1);
    m.add(lane.send_counter(), 1);
    m.add(Counter::ValuesWritten, values as u64);
    m.add(Counter::SimdKernelHits, bsoap_kernels::take_simd_hits());
}

impl TemplateStore {
    /// Send `op(args)` under `key` through the cheapest matching tier and
    /// hand the serialized message (its chunk gather list) to `send`, which
    /// returns the bytes it took.
    ///
    /// * `cap` — variants kept per key (§6 multi-template policy). `0`
    ///   keeps nothing: no lookup, build, send, drop — the stateless send
    ///   a degraded endpoint gets.
    /// * `share` — on an empty key, a same-structure template saved for
    ///   another endpoint of the tenant may be cloned and diffed instead
    ///   of serializing from scratch (§6); the returned flag says it was.
    /// * `metrics` — the caller's registry: serialization counters tick
    ///   when the bytes exist (module docs), and templates built or first
    ///   seen here report their patch work to it.
    ///
    /// The lane is the key's (`key.key.format`), whatever `config` names.
    /// Every error leaves the store as the module docs say: a semantic
    /// error (arity, type, planner) moves no template byte.
    // One entry for both sides of the wire: the arguments are what a
    // send is (where, what, how many kept), not options.
    #[allow(clippy::too_many_arguments)]
    pub fn send<F>(
        &self,
        key: &StoreKey,
        config: &EngineConfig,
        metrics: Option<&Arc<Metrics>>,
        op: &OpDesc,
        args: &[Value],
        cap: usize,
        share: bool,
        send: F,
    ) -> Result<(SendReport, bool), EngineError>
    where
        F: FnOnce(&[IoSlice<'_>]) -> std::io::Result<usize>,
    {
        // Set when the cost gate discarded a saved template: the arguments
        // its diff already checked, which the rebuild below trusts.
        let mut fell_back = None;
        'saved: {
            if cap == 0 {
                break 'saved;
            }
            let mut cloned = false;
            let saved = match self.checkout(key, args, cap) {
                Checkout::Hit(tpl) => Some(tpl),
                Checkout::MissEmpty if share => {
                    let sibling = self.find_shareable(key);
                    cloned = sibling.is_some();
                    sibling
                }
                Checkout::MissEmpty | Checkout::MissVariant => None,
            };
            let Some(mut tpl) = saved else {
                break 'saved;
            };
            if let (Some(m), None) = (metrics, tpl.metrics()) {
                // Template predates the registry: attach lazily.
                tpl.set_metrics(Arc::clone(m));
            }
            let sent = match patch(config, &mut tpl, args) {
                Ok(Ok(mut report)) => {
                    send(&tpl.io_slices())
                        .map_err(EngineError::from)
                        .map(|bytes| {
                            report.bytes = bytes;
                            (report, cloned)
                        })
                }
                Err(e) => Err(e),
                // Cost fallback: the checkout already returned the
                // template's bytes to the budget; the discard only
                // records the eviction (a clone was never resident).
                Ok(Err(checked)) => {
                    if !cloned {
                        self.note_discard(&tpl);
                    }
                    if let Some(m) = metrics {
                        m.add(Counter::CostFallbacks, 1);
                    }
                    fell_back = Some(checked);
                    break 'saved;
                }
            };
            // A template that came out of the store goes back whatever
            // happened to the send; a clone is saved only once delivered.
            if !cloned || sent.is_ok() {
                self.admit(key.clone(), tpl, cap);
            }
            return sent;
        }
        // First-Time Send: nothing saved serves the call (or the cost gate
        // just discarded what was) — "the negligible overhead of checking
        // to see if a stored copy exists and saving a pointer to it after
        // it has been created" (§3).
        let lane = key.key.format;
        let config = config.with_wire_format(lane);
        let mut tpl = match fell_back {
            Some(checked) => MessageTemplate::build_from(config, op, checked)?,
            None => MessageTemplate::build(config, op, args)?,
        };
        let values_written = tpl.leaf_count();
        if let Some(m) = metrics {
            count_serialized(m, lane, SendTier::FirstTime, values_written);
            tpl.set_metrics(Arc::clone(m));
        }
        let bytes = send(&tpl.io_slices())?;
        if cap > 0 {
            self.admit(key.clone(), tpl, cap);
        }
        let report = SendReport {
            tier: SendTier::FirstTime,
            bytes,
            values_written,
            shifts: 0,
            steals: 0,
            splits: 0,
            fell_back: fell_back.is_some(),
        };
        Ok((report, false))
    }
}

/// Diff a saved template against `args` and patch it: `update_args` →
/// `plan` → optional §5 gate → `flush_planned`. `Ok(Err(args))` means the
/// break-even gate priced the patch above `fallback_ratio ×` the rebuild
/// estimate before any byte moved; `args` are what the diff checked.
fn patch<'a>(
    config: &EngineConfig,
    tpl: &mut MessageTemplate,
    args: &'a [Value],
) -> Result<Result<SendReport, CheckedArgs<'a>>, EngineError> {
    let (_, args) = tpl.update(args)?;
    let plan = tpl.plan()?;
    if config.cost_fallback
        && plan.cost().total() as f64 > config.fallback_ratio * tpl.rebuild_estimate() as f64
    {
        return Ok(Err(args));
    }
    tpl.flush_planned(&plan).map(Ok)
}
