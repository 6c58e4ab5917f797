//! Chunk overlaying (§3.3): stream a huge array through one reused chunk.
//!
//! "Chunk overlaying helps limit memory requirements by allowing multiple
//! portions of large arrays to be sent from the same message chunk. … At
//! any given time, the serialized data and the DUT table entries for only
//! one portion of the array is present in memory. That portion of the
//! array is sent, and then the values of the next portion are serialized
//! into the same chunk."
//!
//! The window's tags are written once (a window-sized template fragment);
//! each portion re-serializes only the *values* — so overlay throughput
//! matches the paper's "100% Value Re-serialization" series (Fig. 12)
//! while memory stays bounded by one chunk instead of the whole message.

use crate::config::EngineConfig;
use crate::error::EngineError;
use crate::schema::{OpDesc, TypeDesc};
use crate::send::count_serialized;
use crate::sendv::write_all_vectored;
use crate::soap;
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
    param_name: String,
    item_desc: TypeDesc,
    /// Elements per full window.
    window_elems: usize,
    /// Cached full-window fragment (tags written once, reused send after
    /// send).
    window: Option<MessageTemplate>,
    /// Cached tail fragment and its element count.
    tail: Option<(usize, MessageTemplate)>,
    prologue_scratch: Vec<u8>,
    metrics: Option<Arc<Metrics>>,
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
        let config = config.with_wire_format(crate::config::WireFormat::SoapXml);
        if op.params.len() != 1 {
            return Err(EngineError::StructureMismatch {
                why: "overlay requires a single-parameter operation".into(),
            });
        }
        let param = &op.params[0];
        let TypeDesc::Array { item } = &param.desc else {
            return Err(EngineError::StructureMismatch {
                why: "overlay requires an array parameter".into(),
            });
        };
        if window_elems == 0 {
            return Err(EngineError::StructureMismatch {
                why: "window must hold ≥ 1 element".into(),
            });
        }
        Ok(OverlaySender {
            config,
            op: op.clone(),
            param_name: param.name.clone(),
            item_desc: item.as_ref().clone(),
            window_elems,
            window: None,
            tail: None,
            prologue_scratch: Vec::with_capacity(512),
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
    /// assuming worst-case element widths.
    pub fn auto_window(config: EngineConfig, op: &OpDesc) -> Result<Self, EngineError> {
        let param = op
            .params
            .first()
            .ok_or_else(|| EngineError::StructureMismatch {
                why: "overlay requires a single-parameter operation".into(),
            })?;
        let TypeDesc::Array { item } = &param.desc else {
            return Err(EngineError::StructureMismatch {
                why: "overlay requires an array parameter".into(),
            });
        };
        let elem = max_element_bytes(item);
        let window = (config.chunk.fill_limit() / elem.max(1)).max(1);
        Self::new(config, op, window)
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
        mut portion: impl FnMut(&[IoSlice<'_>]) -> std::io::Result<usize>,
    ) -> Result<OverlayReport, EngineError> {
        let n = value.array_len().ok_or_else(|| EngineError::TypeMismatch {
            at: "overlay send".into(),
            expected: "array value",
            found: value.variant_name(),
        })?;
        let mut bytes = 0usize;
        let mut portions = 0usize;
        let mut values_written = 0usize;
        // FirstTime iff any fragment had to be built this send; a fully
        // patched send is PerfectStructural for the whole overlaid region.
        let mut built = false;

        // Prologue: everything up to and including the array open tag.
        {
            let p = &mut self.prologue_scratch;
            p.clear();
            p.extend_from_slice(soap::XML_DECL.as_bytes());
            p.extend_from_slice(soap::envelope_open(&self.op.namespace).as_bytes());
            p.extend_from_slice(soap::BODY_OPEN.as_bytes());
            p.extend_from_slice(soap::op_open(&self.op.name).as_bytes());
            let (prefix, suffix) =
                soap::array_open_parts(&self.param_name, &self.item_desc.xsi_type());
            p.extend_from_slice(prefix.as_bytes());
            let count = bsoap_convert::format_u64(n as u64);
            p.extend_from_slice(count.as_bytes());
            p.extend_from_slice(suffix.as_bytes());
            // The whole-template builder stuffs the length slot to the full
            // int width so resizes rewrite in place; mirror it so overlaid
            // bytes stay identical to the non-overlay serialization.
            for _ in count.len()..bsoap_convert::INT_MAX_WIDTH {
                p.push(b' ');
            }
            p.push(b'\n');
        }
        bytes += portion(&[IoSlice::new(&self.prologue_scratch)])?;

        let mut window_bytes = 0usize;
        let mut base = 0usize;
        while base < n {
            let size = self.window_elems.min(n - base);
            let fragment = if size == self.window_elems {
                if let Some(t) = self.window.as_mut() {
                    update_fragment(t, &self.item_desc, value, base, size)?;
                } else {
                    built = true;
                    self.window = Some(MessageTemplate::build_fragment(
                        self.config,
                        &self.item_desc,
                        value,
                        base,
                        base + size,
                    )?);
                }
                self.window.as_mut().expect("present")
            } else {
                // Tail portion: cached separately; rebuilt when the tail
                // size changes between sends.
                let reusable = matches!(&self.tail, Some((cached, _)) if *cached == size);
                if reusable {
                    let (_, t) = self.tail.as_mut().expect("checked above");
                    update_fragment(t, &self.item_desc, value, base, size)?;
                } else {
                    built = true;
                    let t = MessageTemplate::build_fragment(
                        self.config,
                        &self.item_desc,
                        value,
                        base,
                        base + size,
                    )?;
                    self.tail = Some((size, t));
                }
                &mut self.tail.as_mut().expect("present").1
            };
            let report = fragment.flush();
            values_written += report.values_written;
            let slices = fragment.io_slices();
            bytes += portion(&slices)?;
            window_bytes = window_bytes.max(fragment.message_len());
            portions += 1;
            base += size;
        }

        // Epilogue: close the array, operation, body, envelope.
        let mut epilogue = Vec::with_capacity(96);
        epilogue.extend_from_slice(soap::elem_close(&self.param_name).as_bytes());
        epilogue.push(b'\n');
        epilogue.extend_from_slice(soap::op_close(&self.op.name).as_bytes());
        epilogue.extend_from_slice(soap::CLOSES.as_bytes());
        bytes += portion(&[IoSlice::new(&epilogue)])?;

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

/// Overwrite the fragment's leaves with elements `[base, base+size)` of
/// `value` — the per-portion re-serialization step of §3.3.
fn update_fragment(
    t: &mut MessageTemplate,
    item_desc: &TypeDesc,
    value: &Value,
    base: usize,
    size: usize,
) -> Result<(), EngineError> {
    use crate::value::Scalar;
    match value {
        Value::DoubleArray(v) => {
            for i in 0..size {
                t.dut.set_value(i, Scalar::Double(v[base + i]));
            }
        }
        Value::IntArray(v) => {
            for i in 0..size {
                t.dut.set_value(i, Scalar::Int(v[base + i]));
            }
        }
        Value::Array(elems) => {
            let lpe = item_desc.leaves_per_instance();
            for i in 0..size {
                let leaf = i * lpe;
                t.diff_value_leaves(leaf, item_desc, &elems[base + i])?;
            }
        }
        other => {
            return Err(EngineError::TypeMismatch {
                at: "overlay window".into(),
                expected: "array value",
                found: other.variant_name(),
            })
        }
    }
    Ok(())
}

/// Worst-case serialized bytes of one array element (open run + per-leaf
/// max width + suffixes + close run) — used to size windows to a chunk.
pub fn max_element_bytes(item_desc: &TypeDesc) -> usize {
    fn leaf_max(desc: &TypeDesc, name: &str) -> usize {
        match desc {
            TypeDesc::Scalar(kind) => {
                soap::scalar_open(name, kind.xsi_type()).len()
                    + kind.max_width().unwrap_or(64)
                    + soap::elem_close(name).len()
            }
            TypeDesc::Struct { fields, .. } => {
                let open = format!("<{name} xsi:type=\"{}\">", desc.xsi_type()).len();
                let close = soap::elem_close(name).len();
                open + close + fields.iter().map(|(n, d)| leaf_max(d, n)).sum::<usize>()
            }
            TypeDesc::Array { .. } => 0,
        }
    }
    leaf_max(item_desc, soap::ITEM_NAME)
}
