//! Saved message templates — the object the whole technique revolves
//! around.
//!
//! A [`MessageTemplate`] is the fully serialized form of one SOAP call,
//! stored in chunks, plus its DUT table and per-array bookkeeping. It is
//! created on the first send ([`MessageTemplate::build`]), then mutated
//! through `set_*`/`update_*` accessors and re-sent with
//! [`MessageTemplate::send`], which picks the cheapest matching tier.

mod build;
mod patch;
mod planner;
mod resize;

use crate::config::EngineConfig;
use crate::dut::DutTable;
use crate::error::EngineError;
use crate::plan::InjectedFault;
use crate::schema::{OpDesc, ParamDesc, TypeDesc};
use crate::value::{Scalar, Value};
use bsoap_chunks::{ChunkStore, Loc};
pub use bsoap_obs::Tier as SendTier;
use bsoap_obs::{Counter, Metrics, Recorder};
use std::io::Write;
use std::sync::Arc;

/// Outcome of one send.
#[derive(Clone, Copy, Debug)]
pub struct SendReport {
    /// Tier used.
    pub tier: SendTier,
    /// Total message bytes handed to the transport.
    pub bytes: usize,
    /// Leaf values re-serialized for this send.
    pub values_written: usize,
    /// Expansion events that shifted a chunk tail.
    pub shifts: usize,
    /// Expansion events satisfied by stealing neighbor padding.
    pub steals: usize,
    /// Chunk splits triggered by expansion.
    pub splits: usize,
    /// The cost gate discarded the saved template and this send took the
    /// FirstTime path instead of patching (see `EngineConfig::cost_fallback`).
    pub fell_back: bool,
}

/// Cumulative statistics over a template's lifetime.
#[derive(Clone, Copy, Debug, Default)]
pub struct TemplateStats {
    /// Sends by tier: first-time, content, perfect, partial.
    pub first_time: u64,
    /// Content-match sends.
    pub content: u64,
    /// Perfect structural match sends.
    pub perfect: u64,
    /// Partial structural match sends.
    pub partial: u64,
    /// Total leaf values re-serialized.
    pub values_written: u64,
    /// Total shift events.
    pub shifts: u64,
    /// Total steal events.
    pub steals: u64,
    /// Total chunk splits.
    pub splits: u64,
    /// Total bytes moved by shifting (the cost §4.3 measures).
    pub shifted_bytes: u64,
}

/// Per-array bookkeeping inside a template.
#[derive(Clone, Debug)]
pub(crate) struct ArrayInfo {
    /// DUT index of the first element leaf.
    pub base_leaf: usize,
    /// DUT leaves per element.
    pub leaves_per_elem: usize,
    /// Current element count.
    pub len: usize,
    /// DUT index of the length field inside `SOAP-ENC:arrayType="T[N]"`.
    pub len_leaf: usize,
    /// Element type.
    pub item_desc: TypeDesc,
    /// First byte of the first element's open tag.
    pub content_start: Loc,
    /// One past the last element's final byte (start of `</name>`).
    pub content_end: Loc,
    /// Bytes of per-element close run after the last leaf's region
    /// (`</item>` for struct items; 0 for scalar items whose suffix is the
    /// close tag itself).
    pub elem_close_run: u32,
}

/// A saved, mutable, resendable serialized message.
///
/// Cloning a template copies its serialized bytes and DUT table — the
/// basis of cross-endpoint template sharing (§6): a client talking to a
/// new service with a structure it has already serialized elsewhere can
/// clone the sibling template and diff, instead of serializing from
/// scratch.
#[derive(Clone, Debug)]
pub struct MessageTemplate {
    pub(crate) config: EngineConfig,
    pub(crate) op: OpDesc,
    pub(crate) store: ChunkStore,
    pub(crate) dut: DutTable,
    pub(crate) arrays: Vec<ArrayInfo>,
    pub(crate) stats: TemplateStats,
    /// Set when the current update cycle changed array sizes.
    pub(crate) structure_changed: bool,
    /// Array resizes queued by `update_args`
    /// (`(array index, pending value)`, ascending, at most one per array).
    /// The executor applies them at flush time; until then the template
    /// bytes and DUT stay untouched, which is what makes a failed send
    /// side-effect free.
    pub(crate) pending_resizes: Vec<(usize, Value)>,
    /// Failure-injection point for the atomicity tests; never set in
    /// production.
    pub(crate) fault: Option<InjectedFault>,
    /// Observability sink. `None` means instrumentation is off: every
    /// record site is a single branch on this option (cloning a template
    /// shares the registry, so cross-endpoint clones report to the same
    /// place).
    pub(crate) metrics: Option<Arc<Metrics>>,
}

impl MessageTemplate {
    // build() lives in build.rs; flush/patch in patch.rs; resize in resize.rs.

    /// The operation this template serves.
    pub fn op(&self) -> &OpDesc {
        &self.op
    }

    /// Number of DUT-tracked leaves (including internal array-length
    /// fields).
    pub fn leaf_count(&self) -> usize {
        self.dut.len()
    }

    /// Current total serialized size in bytes.
    pub fn message_len(&self) -> usize {
        self.store.total_len()
    }

    /// Number of storage chunks.
    pub fn chunk_count(&self) -> usize {
        self.store.chunk_count()
    }

    /// Dirty-leaf count — zero means the next send is a content match.
    pub fn dirty_count(&self) -> usize {
        self.dut.dirty_count()
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> TemplateStats {
        self.stats
    }

    /// Attach an observability registry: subsequent flushes record tier
    /// counters, patch-work counters, and a per-send trace span into it.
    pub fn set_metrics(&mut self, metrics: Arc<Metrics>) {
        self.metrics = Some(metrics);
    }

    /// The attached registry, if any.
    pub fn metrics(&self) -> Option<&Arc<Metrics>> {
        self.metrics.as_ref()
    }

    /// Read-only view of the DUT table.
    pub fn dut(&self) -> &DutTable {
        &self.dut
    }

    /// Current length of array parameter `array_idx`.
    pub fn array_len(&self, array_idx: usize) -> usize {
        self.arrays[array_idx].len
    }

    /// Number of array parameters.
    pub fn array_count(&self) -> usize {
        self.arrays.len()
    }

    /// DUT leaf index of `(element, field)` of array `array_idx`.
    ///
    /// `field` is the leaf offset within one element (0 for scalar items;
    /// 0..n for struct items in declaration order).
    pub fn array_leaf(&self, array_idx: usize, element: usize, field: usize) -> usize {
        let a = &self.arrays[array_idx];
        debug_assert!(element < a.len && field < a.leaves_per_elem);
        a.base_leaf + element * a.leaves_per_elem + field
    }

    fn is_internal_leaf(&self, idx: usize) -> bool {
        self.arrays.iter().any(|a| a.len_leaf == idx)
    }

    fn set_scalar(&mut self, idx: usize, value: Scalar) -> Result<(), EngineError> {
        if idx >= self.dut.len() {
            return Err(EngineError::BadLeafIndex {
                index: idx,
                leaf_count: self.dut.len(),
            });
        }
        if self.is_internal_leaf(idx) {
            return Err(EngineError::KindMismatch {
                index: idx,
                expected: self.dut.entry(idx).kind,
            });
        }
        if self.dut.entry(idx).kind != value.kind() {
            return Err(EngineError::KindMismatch {
                index: idx,
                expected: self.dut.entry(idx).kind,
            });
        }
        self.dut.set_value(idx, value);
        Ok(())
    }

    /// Update a double leaf (marks dirty only when the bits change).
    pub fn set_double(&mut self, idx: usize, v: f64) -> Result<(), EngineError> {
        self.set_scalar(idx, Scalar::Double(v))
    }

    /// Update an int leaf.
    pub fn set_int(&mut self, idx: usize, v: i32) -> Result<(), EngineError> {
        self.set_scalar(idx, Scalar::Int(v))
    }

    /// Update a long leaf.
    pub fn set_long(&mut self, idx: usize, v: i64) -> Result<(), EngineError> {
        self.set_scalar(idx, Scalar::Long(v))
    }

    /// Update a bool leaf.
    pub fn set_bool(&mut self, idx: usize, v: bool) -> Result<(), EngineError> {
        self.set_scalar(idx, Scalar::Bool(v))
    }

    /// Update a string leaf.
    pub fn set_str(&mut self, idx: usize, v: &str) -> Result<(), EngineError> {
        self.set_scalar(idx, Scalar::Str(v.into()))
    }

    /// Force a leaf dirty without changing its value — benchmark support
    /// for measuring pure re-serialization cost.
    pub fn touch(&mut self, idx: usize) {
        self.dut.mark_dirty(idx);
    }

    /// Diff a whole new argument list against the template, marking changed
    /// leaves dirty and resizing arrays as needed. Does not send.
    ///
    /// Returns the tier the next [`flush`](Self::flush) will use.
    pub fn update_args(&mut self, args: &[Value]) -> Result<SendTier, EngineError> {
        self.op.check_args(args)?;
        // The walk mutates the template while it reads the parameter
        // list: lend the list out for the walk instead of cloning it.
        let params = std::mem::take(&mut self.op.params);
        let walked = self.diff_params(&params, args);
        self.op.params = params;
        walked?;
        Ok(self.pending_tier())
    }

    fn diff_params(&mut self, params: &[ParamDesc], args: &[Value]) -> Result<(), EngineError> {
        let mut array_cursor = 0usize;
        let mut leaf_cursor = 0usize;
        for (pidx, (param, arg)) in params.iter().zip(args).enumerate() {
            match &param.desc {
                TypeDesc::Array { .. } => {
                    self.update_array(array_cursor, arg)?;
                    // Leaf cursor moves past len leaf + all element leaves.
                    let a = &self.arrays[array_cursor];
                    leaf_cursor = a.base_leaf + a.len * a.leaves_per_elem;
                    array_cursor += 1;
                }
                desc => {
                    leaf_cursor = self.update_plain(leaf_cursor, desc, arg, pidx)?;
                }
            }
        }
        Ok(())
    }

    /// The tier the next flush will take, given current dirty/structure
    /// state (queued resizes count as structural change).
    pub fn pending_tier(&self) -> SendTier {
        if self.structure_changed || !self.pending_resizes.is_empty() {
            SendTier::PartialStructural
        } else if self.dut.dirty_count() == 0 {
            SendTier::ContentMatch
        } else {
            SendTier::PerfectStructural
        }
    }

    fn update_plain(
        &mut self,
        mut leaf: usize,
        desc: &TypeDesc,
        value: &Value,
        pidx: usize,
    ) -> Result<usize, EngineError> {
        match (desc, value) {
            (TypeDesc::Scalar(_), v) => {
                let scalar = match v {
                    Value::Int(x) => Scalar::Int(*x),
                    Value::Long(x) => Scalar::Long(*x),
                    Value::Double(x) => Scalar::Double(*x),
                    Value::Bool(x) => Scalar::Bool(*x),
                    Value::Str(x) => Scalar::Str(x.as_str().into()),
                    other => {
                        return Err(EngineError::TypeMismatch {
                            at: format!("param {pidx}"),
                            expected: "scalar",
                            found: other.variant_name(),
                        })
                    }
                };
                self.set_scalar(leaf, scalar)?;
                Ok(leaf + 1)
            }
            (TypeDesc::Struct { fields, .. }, Value::Struct(vals)) => {
                for ((_, fdesc), fval) in fields.iter().zip(vals) {
                    leaf = self.update_plain(leaf, fdesc, fval, pidx)?;
                }
                Ok(leaf)
            }
            (d, v) => Err(EngineError::TypeMismatch {
                at: format!("param {pidx}"),
                expected: match d {
                    TypeDesc::Struct { .. } => "Struct",
                    _ => "matching value",
                },
                found: v.variant_name(),
            }),
        }
    }

    /// Update (and if needed resize) array parameter `array_idx` from a new
    /// value. Existing elements are diffed leaf-by-leaf; a length change
    /// triggers the partial-structural-match machinery.
    ///
    /// Private: `value` must already have passed [`OpDesc::check_args`]
    /// (as `update_args` sees to) — the unboxed runs below trust that a
    /// `DoubleArray` meets `double` leaves at stride one.
    fn update_array(&mut self, array_idx: usize, value: &Value) -> Result<(), EngineError> {
        let new_len = value.array_len().ok_or_else(|| EngineError::TypeMismatch {
            at: format!("array {array_idx}"),
            expected: "array value",
            found: value.variant_name(),
        })?;
        let old_len = self.arrays[array_idx].len;
        let common = old_len.min(new_len);
        // Diff the common prefix.
        self.diff_elements(array_idx, value, 0, common)?;
        if new_len != old_len {
            // Validate the new tail now (so the flush-time resize cannot
            // fail), then queue the value for the executor. `old_len` stays
            // the template's length until the flush applies the resize.
            if new_len > old_len {
                let item_desc = self.arrays[array_idx].item_desc.clone();
                planner::validate_elements(&item_desc, value, old_len, new_len)?;
            }
            self.queue_resize(array_idx, value.clone());
        } else {
            // Back to the template's length: any queued resize is moot.
            self.cancel_resize(array_idx);
        }
        Ok(())
    }

    /// Queue (or replace) a resize for `array_idx`.
    fn queue_resize(&mut self, array_idx: usize, value: Value) {
        match self
            .pending_resizes
            .binary_search_by_key(&array_idx, |(i, _)| *i)
        {
            Ok(pos) => self.pending_resizes[pos].1 = value,
            Err(pos) => self.pending_resizes.insert(pos, (array_idx, value)),
        }
    }

    /// Drop any queued resize for `array_idx`.
    fn cancel_resize(&mut self, array_idx: usize) {
        if let Ok(pos) = self
            .pending_resizes
            .binary_search_by_key(&array_idx, |(i, _)| *i)
        {
            self.pending_resizes.remove(pos);
        }
    }

    /// Diff elements `[from, to)` of `value` against the template.
    fn diff_elements(
        &mut self,
        array_idx: usize,
        value: &Value,
        from: usize,
        to: usize,
    ) -> Result<(), EngineError> {
        let base = self.arrays[array_idx].base_leaf;
        let lpe = self.arrays[array_idx].leaves_per_elem;
        match value {
            Value::DoubleArray(v) => self.dut.set_doubles(base + from, &v[from..to]),
            Value::IntArray(v) => self.dut.set_ints(base + from, &v[from..to]),
            Value::Array(elems) => {
                let item_desc = self.arrays[array_idx].item_desc.clone();
                for (i, elem) in elems.iter().enumerate().take(to).skip(from) {
                    let mut leaf = base + i * lpe;
                    leaf = self.diff_value_leaves(leaf, &item_desc, elem)?;
                    debug_assert_eq!(leaf, base + (i + 1) * lpe);
                }
            }
            other => {
                return Err(EngineError::TypeMismatch {
                    at: format!("array {array_idx}"),
                    expected: "array value",
                    found: other.variant_name(),
                })
            }
        }
        Ok(())
    }

    pub(crate) fn diff_value_leaves(
        &mut self,
        mut leaf: usize,
        desc: &TypeDesc,
        value: &Value,
    ) -> Result<usize, EngineError> {
        match (desc, value) {
            (TypeDesc::Scalar(_), v) => {
                let scalar = match v {
                    Value::Int(x) => Scalar::Int(*x),
                    Value::Long(x) => Scalar::Long(*x),
                    Value::Double(x) => Scalar::Double(*x),
                    Value::Bool(x) => Scalar::Bool(*x),
                    Value::Str(x) => Scalar::Str(x.as_str().into()),
                    other => {
                        return Err(EngineError::TypeMismatch {
                            at: "array element".to_owned(),
                            expected: "scalar",
                            found: other.variant_name(),
                        })
                    }
                };
                self.dut.set_value(leaf, scalar);
                Ok(leaf + 1)
            }
            (TypeDesc::Struct { fields, .. }, Value::Struct(vals)) => {
                for ((_, fdesc), fval) in fields.iter().zip(vals) {
                    leaf = self.diff_value_leaves(leaf, fdesc, fval)?;
                }
                Ok(leaf)
            }
            (_, v) => Err(EngineError::TypeMismatch {
                at: "array element".to_owned(),
                expected: "struct",
                found: v.variant_name(),
            }),
        }
    }

    /// Re-serialize all dirty leaves into the stored bytes (no I/O): plan,
    /// then execute.
    ///
    /// Returns the tier this flush realized plus patch statistics.
    pub fn flush(&mut self) -> SendReport {
        let plan = self
            .plan()
            .expect("planning is infallible without injected faults");
        self.flush_planned(&plan)
            .expect("a freshly computed plan cannot be stale")
    }

    /// Flush dirty leaves, then write the whole message to `sink` with
    /// vectored I/O. This is the paper's measured "Send Time" operation.
    pub fn send(&mut self, sink: &mut impl Write) -> Result<SendReport, EngineError> {
        let mut report = self.flush();
        let slices = self.store.io_slices();
        let n = crate::sendv::write_all_vectored_metered(sink, &slices, self.metrics.as_deref())?;
        report.bytes = n;
        if let Some(m) = &self.metrics {
            m.add(Counter::BytesSent, n as u64);
        }
        Ok(report)
    }

    /// Copy the current serialized message into one flat buffer.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.store.flatten()
    }

    /// Inject a fault for the failure-atomicity tests (test support).
    #[doc(hidden)]
    pub fn inject_fault(&mut self, fault: Option<InjectedFault>) {
        self.fault = fault;
    }

    /// Bytes between two document positions (chunk boundaries transparent).
    pub(crate) fn doc_distance(&self, from: Loc, to: Loc) -> usize {
        if from.chunk == to.chunk {
            return (to.offset - from.offset) as usize;
        }
        let mut n = self.store.chunk(from.chunk as usize).len() - from.offset as usize;
        for c in (from.chunk + 1)..to.chunk {
            n += self.store.chunk(c as usize).len();
        }
        n + to.offset as usize
    }

    /// Average serialized bytes per element of array `array_idx` — the
    /// per-element currency of resize cost estimates (planner and template
    /// cache). Falls back to a coarse constant for empty arrays.
    pub(crate) fn array_elem_bytes(&self, array_idx: usize) -> usize {
        let a = &self.arrays[array_idx];
        if a.len == 0 {
            return 64;
        }
        self.doc_distance(a.content_start, a.content_end) / a.len
    }

    /// Gather view of the current serialized message.
    pub fn io_slices(&self) -> Vec<std::io::IoSlice<'_>> {
        self.store.io_slices()
    }

    /// Verify all internal invariants (test support): DUT ordering and
    /// widths, chunk accounting, and that every entry's stored bytes parse
    /// back to its in-memory value when clean.
    pub fn assert_invariants(&self) {
        self.dut.assert_invariants();
        self.store.assert_consistent();
        for (i, e) in self.dut.entries().iter().enumerate() {
            let end = e.region_end() as usize;
            assert!(
                end <= self.store.chunk(e.loc.chunk as usize).len(),
                "entry {i} region extends past chunk end"
            );
        }
    }
}
