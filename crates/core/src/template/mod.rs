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
use crate::schema::{CheckedArgs, OpDesc, TypeDesc};
use crate::value::{Scalar, Value};
use bsoap_chunks::{ChunkStore, Loc};
pub use bsoap_obs::Tier as SendTier;
use bsoap_obs::{Counter, Metrics, Recorder};
use std::cmp::Ordering;
use std::io::{IoSlice, Write};
use std::ops::Range;
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

    /// Bytes the chunks have room for: the message and each chunk's spare.
    pub fn chunk_capacity(&self) -> usize {
        self.store.chunks().map(|c| c.capacity()).sum()
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
    /// leaves dirty and queueing array resizes. Does not send.
    ///
    /// Returns the tier the next [`flush`](Self::flush) will use.
    pub fn update_args(&mut self, args: &[Value]) -> Result<SendTier, EngineError> {
        self.update(args).map(|(tier, _)| tier)
    }

    /// [`Self::update_args`], handing back the checked arguments — what a
    /// cost-gate fallback builds from without checking them again.
    pub(crate) fn update<'a>(
        &mut self,
        args: &'a [Value],
    ) -> Result<(SendTier, CheckedArgs<'a>), EngineError> {
        let args = self.op.check_args(args)?;
        let (mut array, mut leaf) = (0, 0);
        for arg in args.values() {
            // `check_args` matched every argument to its parameter, so an
            // array value is an array parameter.
            match arg.array_len() {
                Some(len) => {
                    self.update_array(array, arg, len);
                    // Past the length leaf and every element the template
                    // holds now (a resize waits for the flush).
                    let a = &self.arrays[array];
                    leaf = a.base_leaf + a.len * a.leaves_per_elem;
                    array += 1;
                }
                None => leaf = self.diff_value(leaf, arg),
            }
        }
        Ok((self.pending_tier(), args))
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

    /// Diff array parameter `array_idx` against `value`, `len` elements
    /// long: the common prefix leaf by leaf; a length change is queued for
    /// the executor (the partial-structural tier), which applies it at
    /// flush time — until then the template keeps its length.
    fn update_array(&mut self, array_idx: usize, value: &Value, len: usize) {
        let a = &self.arrays[array_idx];
        let old_len = a.len;
        self.diff_elements(a.base_leaf, value, 0..old_len.min(len));
        if len != old_len {
            self.queue_resize(array_idx, value.clone());
        } else {
            // Back to the template's length: any queued resize is moot.
            self.cancel_resize(array_idx);
        }
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

    /// The one diff walk over an array: elements `range` of `value`
    /// against the leaves from `leaf` on, marking the changed ones dirty.
    /// Unboxed runs take the branch-free [`DutTable`] compare. Serves a
    /// template's array and an overlay window alike; `value` passed
    /// [`OpDesc::check_args`] against an array of this leaf run's item.
    pub(crate) fn diff_elements(&mut self, leaf: usize, value: &Value, range: Range<usize>) {
        match value {
            Value::DoubleArray(v) => self.dut.set_doubles(leaf, &v[range]),
            Value::IntArray(v) => self.dut.set_ints(leaf, &v[range]),
            Value::Array(elems) => {
                elems[range]
                    .iter()
                    .fold(leaf, |at, e| self.diff_value(at, e));
            }
            v => unreachable!("check_args admitted {} as an array", v.variant_name()),
        }
    }

    /// Diff one checked non-array value against the leaves from `leaf` on;
    /// returns the leaf past it.
    fn diff_value(&mut self, leaf: usize, value: &Value) -> usize {
        match value {
            Value::Struct(fields) => fields.iter().fold(leaf, |at, f| self.diff_value(at, f)),
            v => {
                self.dut.set_value(leaf, Scalar::of(v));
                leaf + 1
            }
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

    /// The gather lists before and after the elements of array
    /// `array_idx`, its length leaf first set to `len` — for an overlay
    /// frame (a build with that array empty), the envelope a streamed
    /// array travels in. The length leaf is stuffed to the full int width,
    /// so the rewrite never shifts a byte.
    pub(crate) fn around_array(&mut self, array_idx: usize, len: usize) -> [Vec<IoSlice<'_>>; 2] {
        let a = &self.arrays[array_idx];
        debug_assert_eq!(a.len, 0, "a frame holds no element");
        self.dut.set_value(a.len_leaf, Scalar::Int(len as i32));
        self.flush();
        let at = self.arrays[array_idx].content_start;
        let mut halves = [Vec::new(), Vec::new()];
        for (c, chunk) in self.store.chunks().enumerate() {
            let cut = match (c as u32).cmp(&at.chunk) {
                Ordering::Less => chunk.len(),
                Ordering::Equal => at.offset as usize,
                Ordering::Greater => 0,
            };
            let (before, after) = chunk.bytes().split_at(cut);
            for (half, bytes) in halves.iter_mut().zip([before, after]) {
                if !bytes.is_empty() {
                    half.push(IoSlice::new(bytes));
                }
            }
        }
        halves
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
