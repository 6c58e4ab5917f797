//! Pipelined send: overlap serialization with transmission.
//!
//! The companion paper the authors cite in §3.3 ("Optimizing Performance
//! of Web Services with Chunk-Overlaying and Pipelined-Send", ICIC 2004)
//! combines chunk overlaying with a send pipeline: while portion *i* is
//! on the wire, portion *i+1* is being serialized. [`PipelinedSender`]
//! implements that scheme on top of [`OverlaySender`]'s window machinery
//! with a bounded ring of transfer buffers and a dedicated writer thread
//! (scoped — no `'static` bounds on the sink).
//!
//! The overlap win is proportional to how much of Send Time the transport
//! itself consumes: against an infinitely fast sink the pipeline only adds
//! a buffer copy, while against a real socket (or any sink whose cost is
//! comparable to serialization) the two costs hide behind each other.

use crate::config::EngineConfig;
use crate::error::EngineError;
use crate::overlay::OverlaySender;
use crate::schema::OpDesc;
use crate::value::Value;
use bsoap_obs::{Counter, Gauge, Metrics, Recorder};
use std::io::Write;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;

/// Outcome of one pipelined send.
#[derive(Clone, Copy, Debug)]
pub struct PipelineReport {
    /// Total bytes written to the sink.
    pub bytes: usize,
    /// Window portions streamed.
    pub portions: usize,
    /// Transfer buffers simultaneously in flight at the deepest point
    /// (≥ 2 means serialization and transmission actually overlapped).
    pub max_in_flight: usize,
}

/// Double(-or-deeper)-buffered streaming sender.
pub struct PipelinedSender {
    inner: OverlaySender,
    depth: usize,
    /// Bytes per transfer buffer before it ships.
    buffer_target: usize,
    metrics: Option<Arc<Metrics>>,
}

impl PipelinedSender {
    /// Pipelined sender for a single-array operation. `depth` is the
    /// number of transfer buffers (≥ 2 for any overlap; 2 is classic
    /// double buffering).
    pub fn new(
        config: EngineConfig,
        op: &OpDesc,
        window_elems: usize,
        depth: usize,
    ) -> Result<Self, EngineError> {
        if depth < 2 {
            return Err(EngineError::StructureMismatch {
                why: "pipeline depth must be at least 2 (double buffering)".into(),
            });
        }
        Ok(PipelinedSender {
            inner: OverlaySender::new(config, op, window_elems)?,
            depth,
            buffer_target: 32 * 1024,
            metrics: None,
        })
    }

    /// Auto-size the window to one chunk (like
    /// [`OverlaySender::auto_window`]) with double buffering.
    pub fn auto(config: EngineConfig, op: &OpDesc) -> Result<Self, EngineError> {
        Ok(PipelinedSender {
            inner: OverlaySender::auto_window(config, op)?,
            depth: 2,
            buffer_target: 32 * 1024,
            metrics: None,
        })
    }

    /// Elements per window portion.
    pub fn window_elems(&self) -> usize {
        self.inner.window_elems()
    }

    /// Override the transfer-buffer size (default 32 KiB).
    pub fn set_buffer_target(&mut self, bytes: usize) {
        self.buffer_target = bytes.max(1);
    }

    /// Attach an observability registry: each send records its portion
    /// count, peak in-flight depth, and bytes written.
    pub fn set_metrics(&mut self, metrics: Arc<Metrics>) {
        self.metrics = Some(metrics);
    }

    /// Stream `value` to `sink`, serializing the next portion while the
    /// previous one is being written.
    pub fn send<W: Write + Send>(
        &mut self,
        value: &Value,
        sink: &mut W,
    ) -> Result<PipelineReport, EngineError> {
        // Channels: filled buffers flow to the writer; empties come back.
        let (filled_tx, filled_rx) = mpsc::sync_channel::<Vec<u8>>(self.depth);
        let (empty_tx, empty_rx) = mpsc::channel::<Vec<u8>>();
        for _ in 0..self.depth {
            empty_tx.send(Vec::new()).expect("receiver alive");
        }
        let in_flight = AtomicUsize::new(0);
        let max_in_flight = AtomicUsize::new(0);

        let inner = &mut self.inner;
        let buffer_target = self.buffer_target;
        std::thread::scope(|scope| -> Result<PipelineReport, EngineError> {
            let writer = scope.spawn({
                let in_flight = &in_flight;
                move || -> std::io::Result<usize> {
                    let mut written = 0usize;
                    while let Ok(buf) = filled_rx.recv() {
                        let r = sink.write_all(&buf);
                        in_flight.fetch_sub(1, Ordering::AcqRel);
                        r?;
                        written += buf.len();
                        // Hand the buffer back; the serializer may already
                        // have finished, so a closed return lane is fine.
                        let _ = empty_tx.send(buf);
                    }
                    sink.flush()?;
                    Ok(written)
                }
            });

            // Serialize portions into pooled buffers. `OverlaySender::send`
            // writes to a `Write`; this adapter rotates pooled buffers
            // through the channel whenever the current one fills.
            let mut pipe = PipeWriter {
                filled_tx: &filled_tx,
                empty_rx: &empty_rx,
                current: None,
                target: buffer_target,
                in_flight: &in_flight,
                max_in_flight: &max_in_flight,
            };
            let serialize_result = inner.send(value, &mut pipe);
            if serialize_result.is_ok() {
                pipe.flush_current();
            }
            // Close the filled lane so the writer drains and exits.
            drop(pipe);
            drop(filled_tx);
            let written = writer.join().expect("writer thread never panics");
            let overlay_report = serialize_result?;
            let bytes = written.map_err(EngineError::Io)?;
            debug_assert_eq!(bytes, overlay_report.bytes);
            let report = PipelineReport {
                bytes,
                portions: overlay_report.portions,
                max_in_flight: max_in_flight.load(Ordering::Acquire),
            };
            if let Some(m) = &self.metrics {
                m.add(Counter::PipelinePortions, report.portions as u64);
                m.add(Counter::BytesSent, report.bytes as u64);
                m.gauge(Gauge::PipelineMaxInFlight, report.max_in_flight as u64);
            }
            Ok(report)
        })
    }
}

/// `Write` adapter that accumulates into pooled buffers and ships each
/// full buffer to the writer thread.
struct PipeWriter<'a> {
    filled_tx: &'a mpsc::SyncSender<Vec<u8>>,
    empty_rx: &'a mpsc::Receiver<Vec<u8>>,
    current: Option<Vec<u8>>,
    target: usize,
    in_flight: &'a AtomicUsize,
    max_in_flight: &'a AtomicUsize,
}

impl PipeWriter<'_> {
    fn buffer(&mut self) -> &mut Vec<u8> {
        if self.current.is_none() {
            // Blocks when all buffers are in flight (backpressure). If the
            // writer died, its return lane is closed — fall back to a
            // fresh allocation; the writer's error surfaces at join time.
            let mut buf = self.empty_rx.recv().unwrap_or_default();
            buf.clear();
            self.current = Some(buf);
        }
        self.current.as_mut().expect("just filled")
    }

    fn ship(&mut self) {
        if let Some(buf) = self.current.take() {
            if buf.is_empty() {
                self.current = Some(buf);
                return;
            }
            let now = self.in_flight.fetch_add(1, Ordering::AcqRel) + 1;
            self.max_in_flight.fetch_max(now, Ordering::AcqRel);
            if self.filled_tx.send(buf).is_err() {
                // Writer gone (I/O error): un-count and keep serializing
                // into the void; the error is reported after join.
                self.in_flight.fetch_sub(1, Ordering::AcqRel);
            }
        }
    }

    fn flush_current(&mut self) {
        self.ship();
    }
}

impl Write for PipeWriter<'_> {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        let target = self.target;
        let buf = self.buffer();
        buf.extend_from_slice(data);
        if buf.len() >= target {
            self.ship();
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TypeDesc;
    use crate::template::MessageTemplate;
    use bsoap_convert::ScalarKind;
    use bsoap_xml::strip_pad;

    fn doubles_op() -> OpDesc {
        OpDesc::single(
            "send",
            "urn:bench",
            "arr",
            TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
        )
    }

    fn dvals(n: usize) -> Value {
        Value::DoubleArray((0..n).map(|i| i as f64 * 0.5 + 0.25).collect())
    }

    /// Collecting sink (Vec already implements Write; named for clarity).
    #[derive(Default)]
    struct Collect(Vec<u8>);
    impl Write for Collect {
        fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
            self.0.extend_from_slice(b);
            Ok(b.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn pipelined_stream_equals_template() {
        let op = doubles_op();
        let config = EngineConfig::paper_default();
        for n in [0usize, 1, 100, 5000] {
            let value = dvals(n);
            let mut sender = PipelinedSender::new(config, &op, 64, 2).unwrap();
            let mut sink = Collect::default();
            let report = sender.send(&value, &mut sink).unwrap();
            assert_eq!(report.bytes, sink.0.len());
            let tpl = MessageTemplate::build(config, &op, std::slice::from_ref(&value)).unwrap();
            assert_eq!(strip_pad(&sink.0), strip_pad(&tpl.to_bytes()), "n = {n}");
        }
    }

    #[test]
    fn repeated_sends_reuse_window() {
        // The reused window re-serializes values over the previous
        // portion's, padding where they shrank — so repeated sends are
        // pad-equivalent (not byte-identical) to each other and to a
        // fresh template.
        let op = doubles_op();
        let config = EngineConfig::paper_default();
        let mut sender = PipelinedSender::new(config, &op, 32, 3).unwrap();
        let mut first = Collect::default();
        sender.send(&dvals(500), &mut first).unwrap();
        let mut second = Collect::default();
        let r = sender.send(&dvals(500), &mut second).unwrap();
        assert_eq!(strip_pad(&first.0), strip_pad(&second.0));
        let tpl = MessageTemplate::build(config, &op, &[dvals(500)]).unwrap();
        assert_eq!(strip_pad(&second.0), strip_pad(&tpl.to_bytes()));
        assert!(r.portions >= 15);
    }

    #[test]
    fn depth_one_rejected() {
        let op = doubles_op();
        assert!(PipelinedSender::new(EngineConfig::paper_default(), &op, 8, 1).is_err());
    }

    #[test]
    fn writer_errors_propagate() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "boom"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let op = doubles_op();
        let mut sender = PipelinedSender::new(EngineConfig::paper_default(), &op, 16, 2).unwrap();
        let err = sender.send(&dvals(2000), &mut Broken).unwrap_err();
        assert!(matches!(err, EngineError::Io(_)));
    }

    #[test]
    fn slow_sink_sees_overlap() {
        // With a sink that does real per-byte work, at least two buffers
        // must have been in flight simultaneously at some point.
        struct Slow(u64);
        impl Write for Slow {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                let mut h = self.0;
                for _ in 0..4 {
                    for &x in b {
                        h = h.wrapping_mul(0x100000001b3) ^ x as u64;
                    }
                }
                self.0 = h;
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let op = doubles_op();
        let config = EngineConfig::paper_default();
        let mut sender = PipelinedSender::new(config, &op, 128, 4).unwrap();
        sender.set_buffer_target(8 * 1024);
        let mut sink = Slow(1);
        let report = sender.send(&dvals(50_000), &mut sink).unwrap();
        assert!(
            report.max_in_flight >= 2,
            "pipeline never overlapped: {}",
            report.max_in_flight
        );
        assert!(sink.0 != 1);
    }

    #[test]
    fn auto_constructor_works() {
        let op = doubles_op();
        let mut sender = PipelinedSender::auto(EngineConfig::paper_default(), &op).unwrap();
        let mut sink = Collect::default();
        sender.send(&dvals(1000), &mut sink).unwrap();
        assert!(!sink.0.is_empty());
    }
}
