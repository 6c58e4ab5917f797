//! First-time send: full serialization and template construction.
//!
//! "Messages are completely serialized and saved during the first
//! invocation of the SOAP call" (§1). The framing is compiled once per
//! build into a [`FramePlan`]; the builder then runs its steps over the
//! argument values, appending tag runs and DUT-tracked field regions to
//! the chunk store in document order.

use super::{ArrayInfo, MessageTemplate, TemplateStats};
use crate::config::EngineConfig;
use crate::dut::{DutEntry, DutTable};
use crate::error::EngineError;
use crate::lane::WireFormat;
use crate::schema::{CheckedArgs, OpDesc, ParamDesc, TypeDesc};
use crate::soap::ITEM_NAME;
use crate::value::{Scalar, Value};
use bsoap_chunks::{ChunkStore, Loc};
use bsoap_convert::{ScalarKind, INT_MAX_WIDTH};
use std::ops::Range;

/// A range of a [`FramePlan`]'s byte arena.
type Span = Range<usize>;

/// One step of a [`FramePlan`].
pub(crate) enum Step {
    /// Fixed framing bytes: one chunk-store region, copied as is.
    Raw(Span),
    /// `(open, kind, close)`: one DUT-tracked leaf region
    /// `[open][value][close][pad]`. The open tag rides in its leaf's
    /// region: one append per leaf, and a chunk boundary never falls
    /// between a tag and its value.
    Leaf(Span, ScalarKind, Span),
    /// The next value is a struct; its fields feed the steps that follow.
    Enter,
    /// The next value is array parameter `param`: its DUT-tracked element
    /// count (suffix `count_close`, then `sep`), then `item` once per
    /// element.
    Array {
        param: usize,
        count_close: Span,
        sep: Span,
        item: Vec<Step>,
    },
}

/// The framing of one operation (or one array item type) on one lane,
/// compiled before the first value is seen: every tag the lane hands out
/// for the schema, asked for once and laid end to end in one byte arena,
/// and the step list the builder runs per value. Framing is a property of
/// `(lane, schema)`, so the per-value walk only copies it. Compiling is
/// ~2 µs against a ≥ 90 µs build, so nothing is kept across builds.
#[derive(Default)]
pub(crate) struct FramePlan {
    arena: Vec<u8>,
    pub(super) steps: Vec<Step>,
}

impl FramePlan {
    /// The whole envelope of `op`. Refuses the shapes templates do not
    /// support: arrays are top-level parameters only, of scalars or of
    /// structs of scalars/structs — the paper's workloads exactly (arrays
    /// of ints, doubles, and MIOs).
    fn op(lane: WireFormat, op: &OpDesc) -> Result<Self, EngineError> {
        let mut plan = FramePlan::default();
        lane.open_envelope(op, |region| plan.raw(region));
        for (param, p) in op.params.iter().enumerate() {
            match &p.desc {
                TypeDesc::Array { item } if matches!(**item, TypeDesc::Array { .. }) => {
                    return Err(EngineError::StructureMismatch {
                        why: "arrays of arrays are not supported by templates".into(),
                    })
                }
                TypeDesc::Array { item } => {
                    let ((open, close), count_close) = lane.array_tags(&p.name, item);
                    plan.raw(&open);
                    let outer = std::mem::take(&mut plan.steps);
                    plan.value(lane, ITEM_NAME, item)?;
                    let item = std::mem::replace(&mut plan.steps, outer);
                    let (count_close, sep) = (plan.span(count_close), plan.span(lane.separator()));
                    plan.steps.push(Step::Array {
                        param,
                        count_close,
                        sep,
                        item,
                    });
                    plan.raw(&close);
                }
                desc => plan.value(lane, &p.name, desc)?,
            }
            plan.raw(lane.separator());
        }
        lane.close_envelope(op, |region| plan.raw(region));
        Ok(plan)
    }

    /// One element of an array of `item` — what a resize and an overlay
    /// fragment serialize.
    pub(crate) fn item(lane: WireFormat, item: &TypeDesc) -> Result<Self, EngineError> {
        let mut plan = FramePlan::default();
        plan.value(lane, ITEM_NAME, item)?;
        Ok(plan)
    }

    fn span(&mut self, bytes: &[u8]) -> Span {
        let at = self.arena.len();
        self.arena.extend_from_slice(bytes);
        at..self.arena.len()
    }

    /// One framing region; an empty one (bin1 has several) is no step.
    fn raw(&mut self, bytes: &[u8]) {
        if !bytes.is_empty() {
            let span = self.span(bytes);
            self.steps.push(Step::Raw(span));
        }
    }

    /// The steps of one non-array value under element name `name`.
    fn value(&mut self, lane: WireFormat, name: &str, desc: &TypeDesc) -> Result<(), EngineError> {
        match desc {
            TypeDesc::Scalar(kind) => {
                let (open, close) = lane.scalar_tags(name, *kind);
                let (open, close) = (self.span(&open), self.span(&close));
                self.steps.push(Step::Leaf(open, *kind, close));
            }
            TypeDesc::Struct { fields, .. } => {
                let (open, close) = lane.struct_tags(name, desc);
                self.steps.push(Step::Enter);
                self.raw(&open);
                for (fname, fdesc) in fields {
                    self.value(lane, fname, fdesc)?;
                }
                self.raw(&close);
            }
            TypeDesc::Array { .. } => {
                return Err(EngineError::StructureMismatch {
                    why: "arrays inside structs are not supported by templates".into(),
                })
            }
        }
        Ok(())
    }

    /// DUT leaves one pass over `steps` pushes for `args` (element steps
    /// name no array, so `args` may be empty there).
    fn leaves(steps: &[Step], args: &[Value]) -> usize {
        let of = |step: &Step| match step {
            Step::Leaf(..) => 1,
            Step::Array { param, item, .. } => {
                let len = args.get(*param).and_then(Value::array_len);
                1 + Self::leaves(item, &[]) * len.unwrap_or(0)
            }
            Step::Raw(_) | Step::Enter => 0,
        };
        steps.iter().map(of).sum()
    }

    /// Worst-case bytes of one pass over an item plan: every leaf at its
    /// kind's maximum width (64 for an unbounded string).
    fn max_bytes(&self) -> usize {
        let of = |step: &Step| match step {
            Step::Raw(span) => span.len(),
            Step::Leaf(open, kind, close) => {
                open.len() + kind.max_width().unwrap_or(64) + close.len()
            }
            Step::Enter | Step::Array { .. } => 0,
        };
        self.steps.iter().map(of).sum()
    }
}

/// The value the next step consumes: the next field of the innermost
/// struct being walked (an exhausted level pops), else the next of `top`.
fn next_value<'v>(
    top: &mut std::slice::Iter<'v, Value>,
    open_structs: &mut Vec<std::slice::Iter<'v, Value>>,
) -> &'v Value {
    loop {
        let Some(fields) = open_structs.last_mut() else {
            return top.next().expect("check_args counted the values");
        };
        if let Some(v) = fields.next() {
            return v;
        }
        open_structs.pop();
    }
}

/// Internal builder state.
pub(crate) struct Builder {
    pub config: EngineConfig,
    pub store: ChunkStore,
    pub dut: DutTable,
    pub arrays: Vec<ArrayInfo>,
    region: Vec<u8>,
}

impl Builder {
    /// A builder about to push `leaves` DUT entries and `arrays` arrays.
    pub(crate) fn new(config: EngineConfig, leaves: usize, arrays: usize) -> Self {
        Builder {
            config,
            store: ChunkStore::new(config.chunk),
            dut: DutTable::with_capacity(leaves),
            arrays: Vec::with_capacity(arrays),
            region: Vec::with_capacity(128),
        }
    }

    /// Current append position (end of the last chunk). A `Loc` at a chunk
    /// boundary is byte-equivalent to `(next chunk, 0)`.
    fn tell(&self) -> Loc {
        if self.store.chunk_count() == 0 {
            Loc::new(0, 0)
        } else {
            let idx = self.store.chunk_count() - 1;
            Loc::new(idx, self.store.chunk(idx).len())
        }
    }

    /// The template holding everything appended so far.
    fn finish(self, op: OpDesc, stats: TemplateStats) -> MessageTemplate {
        MessageTemplate {
            config: self.config,
            op,
            store: self.store,
            dut: self.dut,
            arrays: self.arrays,
            stats,
            structure_changed: false,
            pending_resizes: Vec::new(),
            fault: None,
            metrics: None,
        }
    }

    /// Append one DUT-tracked leaf region `[open][value][close][pad]`, as
    /// wide as the lane's initial-width rule says (`width_floor` is the
    /// array length field asking for room to grow in place).
    fn leaf(&mut self, open: &[u8], value: Scalar, close: &[u8], width_floor: Option<usize>) {
        let kind = value.kind();
        let lane = self.config.wire_format;
        self.region.clear();
        self.region.extend_from_slice(open);
        lane.encode_leaf(&value, &mut self.region, self.config.float);
        let ser_len = self.region.len() - open.len();
        let width = lane.initial_width(self.config.width, kind, ser_len, width_floor);
        self.region.extend_from_slice(close);
        self.region.resize(open.len() + width + close.len(), b' ');
        let mut loc = self.store.append_region(&self.region);
        loc.offset += open.len() as u32;
        self.dut.push(DutEntry {
            kind,
            dirty: false,
            loc,
            ser_len: ser_len as u32,
            width: width as u32,
            suffix_len: close.len() as u32,
            value,
        });
    }

    /// Run `steps` `passes` times, feeding them `values` in order (a pass
    /// consumes as many as `steps` names outside a struct). The one walk
    /// of a build: it encodes, pads, copies and pushes DUT entries; every
    /// tag it writes is a span of `plan`. `values` passed
    /// [`OpDesc::check_args`], so each fits the step that takes it.
    fn run(
        &mut self,
        plan: &FramePlan,
        steps: &[Step],
        params: &[ParamDesc],
        values: &[Value],
        passes: usize,
    ) {
        let arena = &plan.arena[..];
        let mut top = values.iter();
        let mut open_structs = Vec::new();
        for step in std::iter::repeat_n(steps, passes).flatten() {
            match step {
                Step::Raw(span) => {
                    self.store.append_region(&arena[span.clone()]);
                }
                Step::Leaf(open, _, close) => {
                    let scalar = Scalar::of(next_value(&mut top, &mut open_structs));
                    self.leaf(&arena[open.clone()], scalar, &arena[close.clone()], None);
                }
                Step::Enter => match next_value(&mut top, &mut open_structs) {
                    Value::Struct(vals) => open_structs.push(vals.iter()),
                    v => unreachable!("check_args admitted {} as a struct", v.variant_name()),
                },
                Step::Array {
                    param,
                    count_close,
                    sep,
                    item,
                } => {
                    let value = next_value(&mut top, &mut open_structs);
                    let p = &params[*param];
                    let len = value.array_len().expect("check_args admitted an array");
                    let TypeDesc::Array { item: item_desc } = &p.desc else {
                        unreachable!("compiled from an array parameter")
                    };
                    let len_leaf = self.dut.len();
                    // The length field asks for the full int width so a
                    // resize rewrites it in place, never shifting the
                    // array open.
                    let count = Scalar::Int(len as i32);
                    self.leaf(&[], count, &arena[count_close.clone()], Some(INT_MAX_WIDTH));
                    if !sep.is_empty() {
                        self.store.append_region(&arena[sep.clone()]);
                    }
                    let content_start = self.tell();
                    let base_leaf = self.dut.len();
                    self.elements(plan, item, value, 0, len);
                    // The fixed close run after an element's last leaf
                    // region: the close of every struct still open there
                    // (0 for scalar items — their close is the leaf suffix).
                    let closes = item.iter().rev().map_while(|s| match s {
                        Step::Raw(span) => Some(span.len()),
                        _ => None,
                    });
                    self.arrays.push(ArrayInfo {
                        base_leaf,
                        leaves_per_elem: FramePlan::leaves(item, &[]),
                        len,
                        len_leaf,
                        item_desc: (**item_desc).clone(),
                        content_start,
                        content_end: self.tell(),
                        elem_close_run: closes.sum::<usize>() as u32,
                    });
                }
            }
        }
    }

    /// Serialize elements `[from, to)` of an array value, `steps` once per
    /// element; used at build time, when growing an array (resize builds
    /// into a fresh `Builder`) and for an overlay window. `value` passed
    /// [`OpDesc::check_args`] against an array of the plan's item.
    pub(crate) fn elements(
        &mut self,
        plan: &FramePlan,
        steps: &[Step],
        value: &Value,
        from: usize,
        to: usize,
    ) {
        // An unboxed array is a run of one leaf step.
        let tags =
            |open: &Span, close: &Span| (&plan.arena[open.clone()], &plan.arena[close.clone()]);
        use ScalarKind::{Double, Int};
        match (value, steps) {
            (Value::DoubleArray(v), [Step::Leaf(open, Double, close)]) => {
                let (open, close) = tags(open, close);
                let xs = v[from..to].iter();
                xs.for_each(|&x| self.leaf(open, Scalar::Double(x), close, None));
            }
            (Value::IntArray(v), [Step::Leaf(open, Int, close)]) => {
                let (open, close) = tags(open, close);
                let xs = v[from..to].iter();
                xs.for_each(|&x| self.leaf(open, Scalar::Int(x), close, None));
            }
            (Value::Array(elems), _) => self.run(plan, steps, &[], &elems[from..to], to - from),
            (v, _) => unreachable!("check_args admitted {} as this array", v.variant_name()),
        }
    }
}

impl MessageTemplate {
    /// Full serialization of `args` for `op` — the first-time send path.
    ///
    /// The resulting template holds the complete serialized message, its
    /// DUT table, and array bookkeeping; subsequent sends go through
    /// [`MessageTemplate::update_args`] / [`MessageTemplate::send`].
    pub fn build(
        config: EngineConfig,
        op: &OpDesc,
        args: &[Value],
    ) -> Result<MessageTemplate, EngineError> {
        let args = op.check_args(args)?;
        Self::build_from(config, op, args)
    }

    /// [`Self::build`] past the argument check — also the cost-gate
    /// fallback's, whose diff already made it.
    pub(crate) fn build_from(
        config: EngineConfig,
        op: &OpDesc,
        args: CheckedArgs<'_>,
    ) -> Result<MessageTemplate, EngineError> {
        let args = args.values();
        let plan = FramePlan::op(config.wire_format, op)?;
        let arrays = plan
            .steps
            .iter()
            .filter(|s| matches!(s, Step::Array { .. }));
        let leaves = FramePlan::leaves(&plan.steps, args);
        let mut b = Builder::new(config, leaves, arrays.count());
        b.run(&plan, &plan.steps, &op.params, args, 1);
        b.store.trim_last();
        let stats = TemplateStats {
            first_time: 1,
            ..TemplateStats::default()
        };
        Ok(b.finish(op.clone(), stats))
    }

    /// Serialize elements `[from, to)` of an array value as a standalone
    /// fragment (no envelope, no array open/close) — the window object of
    /// chunk overlaying (§3.3). The fragment's DUT leaves are indexed from
    /// zero in element order. `value` passed [`OpDesc::check_args`].
    pub(crate) fn build_fragment(
        config: EngineConfig,
        item_desc: &TypeDesc,
        value: &Value,
        range: Range<usize>,
    ) -> Result<MessageTemplate, EngineError> {
        let plan = FramePlan::item(config.wire_format, item_desc)?;
        let leaves = FramePlan::leaves(&plan.steps, &[]);
        let mut b = Builder::new(config, range.len() * leaves, 0);
        b.elements(&plan, &plan.steps, value, range.start, range.end);
        let op = OpDesc::new("__overlay_fragment", "", Vec::new());
        Ok(b.finish(op, TemplateStats::default()))
    }

    /// Worst-case serialized bytes of one element of an array of `item` on
    /// `lane`, read off the item's frame plan — what sizes an overlay
    /// window to one chunk.
    pub(crate) fn max_element_bytes(
        lane: WireFormat,
        item: &TypeDesc,
    ) -> Result<usize, EngineError> {
        FramePlan::item(lane, item).map(|plan| plan.max_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::mio;

    /// The walk trusts the argument check, so the check must refuse every
    /// wrong shape the walk would stumble on: a build of one is exactly
    /// `check_args`' typed error, never a panic or a shortened struct.
    #[test]
    fn every_wrong_shape_is_refused_by_the_one_check() {
        let param = |name: &str, desc| ParamDesc {
            name: name.to_owned(),
            desc,
        };
        let cells = param("cells", TypeDesc::array_of(TypeDesc::mio()));
        let op = OpDesc::new("f", "urn:t", vec![param("cell", TypeDesc::mio()), cells]);
        let short = Value::Struct(vec![Value::Int(1), Value::Int(2)]);
        let long = Value::Struct(vec![Value::Int(1); 4]);
        let wrong_kind = Value::Struct(vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
        let cells = |cell: Value| Value::Array(vec![mio(1, 2, 0.5), cell]);
        for bad in [
            vec![short.clone(), cells(mio(1, 2, 0.5))],
            vec![long, cells(mio(1, 2, 0.5))],
            vec![wrong_kind.clone(), cells(mio(1, 2, 0.5))],
            vec![mio(1, 2, 0.5), cells(short)],
            vec![mio(1, 2, 0.5), cells(wrong_kind)],
            vec![mio(1, 2, 0.5), cells(Value::Int(7))],
            vec![mio(1, 2, 0.5), Value::Int(7)],
            vec![mio(1, 2, 0.5), Value::DoubleArray(vec![0.5])],
            vec![mio(1, 2, 0.5)],
        ] {
            for lane in WireFormat::ALL {
                let config = EngineConfig::default().with_wire_format(lane);
                let refused = MessageTemplate::build(config, &op, &bad).unwrap_err();
                let checked = op.check_args(&bad).unwrap_err();
                assert_eq!(format!("{refused:?}"), format!("{checked:?}"), "{bad:?}");
            }
        }
    }
}
