//! Chunk overlaying (§3.3): stream a huge array through one reused chunk.
//!
//! "Chunk overlaying helps limit memory requirements by allowing multiple
//! portions of large arrays to be sent from the same message chunk. … At
//! any given time, the serialized data and the DUT table entries for only
//! one portion of the array is present in memory. That portion of the
//! array is sent, and then the values of the next portion are serialized
//! into the same chunk."
//!
//! Nothing here formats a tag. The envelope is a template of the operation
//! built with the array empty (its length leaf rewritten per send); the
//! window is a template fragment of the array's elements, built by the one
//! builder and diffed by the one diff walk, so each portion re-serializes
//! only the *values* — overlay throughput matches the paper's "100% Value
//! Re-serialization" series (Fig. 12) while memory stays bounded by one
//! chunk instead of the whole message.

use crate::config::{EngineConfig, WireFormat};
use crate::error::EngineError;
use crate::schema::{OpDesc, TypeDesc};
use crate::send::count_serialized;
use crate::sendv::write_all_vectored;
use crate::template::{MessageTemplate, SendTier};
use crate::value::Value;
use bsoap_obs::{Counter, Gauge, Metrics, Recorder};
use std::io::{IoSlice, Write};
use std::sync::Arc;

/// Outcome of one overlaid send.
#[derive(Clone, Copy, Debug)]
pub struct OverlayReport {
    /// Total bytes written to the sink.
    pub bytes: usize,
    /// Number of window portions streamed (prologue and epilogue excluded:
    /// this counts re-serializations of the window fragment).
    pub portions: usize,
    /// Leaf values serialized (≈ array leaves; tags are not rewritten for
    /// full windows after the first send).
    pub values_written: usize,
    /// Peak template memory: the window fragment's stored bytes.
    pub window_bytes: usize,
    /// DUT tier realized for the overlaid region: `FirstTime` when this
    /// send built the window fragment, `PerfectStructural` when every
    /// portion patched values into the cached fragment — the §3.3 promise
    /// that overlaying preserves differential-send semantics across sends.
    pub tier: SendTier,
}

/// Streaming sender for single-array operations using chunk overlaying.
#[derive(Debug)]
pub struct OverlaySender {
    config: EngineConfig,
    op: OpDesc,
    item: TypeDesc,
    /// Elements per full window.
    window_elems: usize,
    /// The envelope around the array: `op` built with the array empty.
    frame: MessageTemplate,
    /// Cached full-window fragment (tags written once, reused send after
    /// send).
    window: Option<MessageTemplate>,
    /// Cached tail fragment and its element count.
    tail: Option<(usize, MessageTemplate)>,
    metrics: Option<Arc<Metrics>>,
}

/// Worst-case serialized bytes of one element of an array of `item`, from
/// the item's frame plan.
pub(crate) fn element_bytes(item: &TypeDesc) -> Result<usize, EngineError> {
    MessageTemplate::max_element_bytes(WireFormat::SoapXml, item)
}

impl OverlaySender {
    /// Create an overlay sender for `op`, which must have exactly one
    /// array parameter. `window_elems` portions the array; use
    /// [`OverlaySender::auto_window`] to derive it from the chunk size.
    pub fn new(
        config: EngineConfig,
        op: &OpDesc,
        window_elems: usize,
    ) -> Result<Self, EngineError> {
        // The overlay windows address the XML text layout of the array
        // region; the fixed-slot binary lane (§3.15) has no equivalent
        // streaming path yet, so overlaid sends always ride XML — even
        // when the caller's config prefers the binary lane.
        let config = config.with_wire_format(WireFormat::SoapXml);
        let (_, item) = op.sole_array()?;
        if window_elems == 0 {
            return Err(EngineError::StructureMismatch {
                why: "window must hold ≥ 1 element".into(),
            });
        }
        let frame = MessageTemplate::build(config, op, &[Value::Array(Vec::new())])?;
        Ok(OverlaySender {
            config,
            op: op.clone(),
            item: item.clone(),
            window_elems,
            frame,
            window: None,
            tail: None,
            metrics: None,
        })
    }

    /// Attach an observability registry: every send records
    /// `OverlayPortions`/`OverlayBytesStreamed` counters and observes the
    /// window fragment's size on the `OverlayWindowPeakBytes` gauge (the
    /// sender-side memory bound, flat in array size).
    pub fn set_metrics(&mut self, metrics: Arc<Metrics>) {
        self.metrics = Some(metrics);
    }

    /// The attached registry, if any.
    pub fn metrics(&self) -> Option<&Arc<Metrics>> {
        self.metrics.as_ref()
    }

    /// Create a sender whose window fills (but never exceeds) one chunk,
    /// assuming worst-case element widths — a portion is "sent from the
    /// same message chunk" (§3.3).
    pub fn auto_window(config: EngineConfig, op: &OpDesc) -> Result<Self, EngineError> {
        let mut sender = Self::new(config, op, 1)?;
        let elem = element_bytes(&sender.item)?;
        sender.window_elems = (config.chunk.fill_limit() / elem.max(1)).max(1);
        Ok(sender)
    }

    /// Elements per full window.
    pub fn window_elems(&self) -> usize {
        self.window_elems
    }

    /// Stream `value` (the array argument) to `sink` as one SOAP message.
    pub fn send(
        &mut self,
        value: &Value,
        sink: &mut impl Write,
    ) -> Result<OverlayReport, EngineError> {
        self.send_portions(value, |slices| {
            let mut w = &mut *sink;
            write_all_vectored(&mut w, slices)
        })
    }

    /// Stream `value` handing each serialized piece — prologue, every
    /// window portion, epilogue — to `portion` the moment it exists. This
    /// is the streaming engine mode: wired to a
    /// `ChunkedBodyWriter::write_portion`, each overlaid portion becomes
    /// one HTTP chunk on the wire and sender memory never exceeds the
    /// window fragment. `portion` returns the bytes it wrote (short
    /// writes are the callback's problem; the engine hands it whole
    /// portions).
    pub fn send_portions(
        &mut self,
        value: &Value,
        portion: impl FnMut(&[IoSlice<'_>]) -> std::io::Result<usize>,
    ) -> Result<OverlayReport, EngineError> {
        self.stream(std::slice::from_ref(value), portion)
    }

    /// [`Self::send_portions`] of an argument list: `args` is checked
    /// against the operation — arity included — before a byte is
    /// serialized, so a refused send leaves the window as it was.
    pub(crate) fn stream(
        &mut self,
        args: &[Value],
        mut portion: impl FnMut(&[IoSlice<'_>]) -> std::io::Result<usize>,
    ) -> Result<OverlayReport, EngineError> {
        let value = &self.op.check_args(args)?.values()[0];
        let n = value.array_len().expect("check_args admitted an array");
        let mut values_written = 0usize;
        let mut portions = 0usize;
        let mut window_bytes = 0usize;
        // FirstTime iff any fragment had to be built this send; a fully
        // patched send is PerfectStructural for the whole overlaid region.
        let mut built = false;

        let [prologue, epilogue] = self.frame.around_array(0, n);
        let mut bytes = portion(&prologue)?;
        let mut base = 0usize;
        while base < n {
            let size = self.window_elems.min(n - base);
            let range = base..base + size;
            // The full window, or the tail: cached separately, rebuilt when
            // the tail size changes between sends.
            let cached = if size == self.window_elems {
                self.window.as_mut()
            } else {
                let tail = self.tail.as_mut().filter(|(len, _)| *len == size);
                tail.map(|(_, t)| t)
            };
            let fragment = match cached {
                Some(t) => {
                    t.diff_elements(0, value, range);
                    t
                }
                None => {
                    built = true;
                    let t = MessageTemplate::build_fragment(self.config, &self.item, value, range)?;
                    if size == self.window_elems {
                        self.window.insert(t)
                    } else {
                        &mut self.tail.insert((size, t)).1
                    }
                }
            };
            values_written += fragment.flush().values_written;
            bytes += portion(&fragment.io_slices())?;
            window_bytes = window_bytes.max(fragment.message_len());
            portions += 1;
            base += size;
        }
        bytes += portion(&epilogue)?;

        let report = OverlayReport {
            bytes,
            portions,
            values_written,
            window_bytes,
            tier: if built {
                SendTier::FirstTime
            } else {
                SendTier::PerfectStructural
            },
        };
        if let Some(m) = &self.metrics {
            // Every portion is serialized: the overlaid send counts like
            // any other (the fragments carry no registry, so their
            // flushes left tier, values and SIMD hits for this fold).
            count_serialized(m, self.config.wire_format, report.tier, values_written);
            m.add(Counter::OverlayPortions, report.portions as u64);
            m.add(Counter::OverlayBytesStreamed, report.bytes as u64);
            m.gauge(Gauge::OverlayWindowPeakBytes, report.window_bytes as u64);
        }
        Ok(report)
    }

    /// Drop cached fragments (memory reclamation / poisoned-state reset).
    pub fn reset(&mut self) {
        self.window = None;
        self.tail = None;
    }
}
