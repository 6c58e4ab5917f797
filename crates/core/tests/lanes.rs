//! The one builder on every lane: what must hold whatever the framing
//! (loops over `WireFormat::ALL`), then the bin1 geometry the fixed-width
//! records buy (§ DESIGN 3.15).

use bsoap_chunks::ChunkConfig;
use bsoap_convert::{ScalarKind, INT_MAX_WIDTH};
use bsoap_core::value::mio;
use bsoap_core::{
    soap, wire, EngineConfig, EngineError, MessageTemplate, OpDesc, OverlaySender, ParamDesc,
    Scalar, SendTier, TypeDesc, Value, WireFormat,
};
use proptest::prelude::*;

fn cfg(lane: WireFormat) -> EngineConfig {
    EngineConfig::paper_default().with_wire_format(lane)
}

fn bin_cfg() -> EngineConfig {
    cfg(WireFormat::CompactBinary)
}

fn mesh_op() -> OpDesc {
    OpDesc::new(
        "updateMesh",
        "urn:mesh",
        vec![
            ParamDesc {
                name: "step".to_owned(),
                desc: TypeDesc::Scalar(ScalarKind::Int),
            },
            ParamDesc {
                name: "field".to_owned(),
                desc: TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
            },
            ParamDesc {
                name: "tag".to_owned(),
                desc: TypeDesc::Scalar(ScalarKind::Str),
            },
        ],
    )
}

fn mesh_args(step: i32, field: &[f64], tag: &str) -> Vec<Value> {
    vec![
        Value::Int(step),
        Value::DoubleArray(field.to_vec()),
        Value::Str(tag.to_owned()),
    ]
}

#[test]
fn resize_matches_fresh_build_bytes_on_every_lane() {
    for lane in WireFormat::ALL {
        let mut t =
            MessageTemplate::build(cfg(lane), &mesh_op(), &mesh_args(1, &[1.0, 2.0], "t")).unwrap();
        assert_eq!(WireFormat::of_message(None, &t.to_bytes()), lane);
        // Grow.
        let grown = mesh_args(1, &[1.0, 2.0, 3.0, 4.0, 5.0], "t");
        assert_eq!(t.update_args(&grown).unwrap(), SendTier::PartialStructural);
        t.flush();
        let fresh = MessageTemplate::build(cfg(lane), &mesh_op(), &grown).unwrap();
        assert_eq!(t.to_bytes(), fresh.to_bytes(), "{lane:?} grow");
        // Shrink back below the original length.
        let shrunk = mesh_args(1, &[7.0], "t");
        t.update_args(&shrunk).unwrap();
        t.flush();
        let fresh = MessageTemplate::build(cfg(lane), &mesh_op(), &shrunk).unwrap();
        assert_eq!(t.to_bytes(), fresh.to_bytes(), "{lane:?} shrink");
        t.assert_invariants();
    }
}

#[test]
fn struct_array_resizes_match_fresh_builds_on_every_lane() {
    let op = OpDesc::single(
        "sendMios",
        "urn:mesh",
        "mios",
        TypeDesc::array_of(TypeDesc::mio()),
    );
    let mios = |n: usize| {
        Value::Array(
            (0..n)
                .map(|i| mio(i as i32, (i * 2) as i32, i as f64 * 0.5))
                .collect(),
        )
    };
    for lane in WireFormat::ALL {
        let mut t = MessageTemplate::build(cfg(lane), &op, &[mios(4)]).unwrap();
        assert_eq!(WireFormat::of_message(None, &t.to_bytes()), lane);
        // Resize down then up; bytes must always match a fresh build.
        for n in [2usize, 6, 1] {
            t.update_args(&[mios(n)]).unwrap();
            t.flush();
            let fresh = MessageTemplate::build(cfg(lane), &op, &[mios(n)]).unwrap();
            assert_eq!(t.to_bytes(), fresh.to_bytes(), "{lane:?} n={n}");
            t.assert_invariants();
        }
    }
}

#[test]
fn binary_build_is_framed_and_compact() {
    let t = MessageTemplate::build(
        bin_cfg(),
        &mesh_op(),
        &mesh_args(1, &[1.0, 2.5, -3.0], "run"),
    )
    .unwrap();
    let bytes = t.to_bytes();
    assert!(bytes.starts_with(wire::MAGIC));
    assert_eq!(*bytes.last().unwrap(), wire::END);
    // prologue + int leaf + array(begin + len leaf + 3 doubles + end) + str leaf + END
    let expected = 4 + 2 + "updateMesh".len() + 1   // prologue
            + 5                                          // step
            + 1 + 5 + 3 * 9 + 1                          // field
            + (1 + 4 + 3)                                // tag
            + 1; // END
    assert_eq!(bytes.len(), expected);
}

#[test]
fn binary_numeric_rewrites_are_pure_overwrites() {
    let mut t = MessageTemplate::build(
        bin_cfg(),
        &mesh_op(),
        &mesh_args(1, &[1.0, 2.5, -3.0], "run"),
    )
    .unwrap();
    let len0 = t.message_len();
    let tier = t
        .update_args(&mesh_args(2, &[9.0, f64::MIN_POSITIVE, 1e300], "run"))
        .unwrap();
    assert_eq!(tier, SendTier::PerfectStructural);
    let report = t.flush();
    assert_eq!(report.shifts, 0);
    assert_eq!(report.steals, 0);
    assert_eq!(t.message_len(), len0);
    // The patched bytes equal a from-scratch build of the new args.
    let fresh = MessageTemplate::build(
        bin_cfg(),
        &mesh_op(),
        &mesh_args(2, &[9.0, f64::MIN_POSITIVE, 1e300], "run"),
    )
    .unwrap();
    assert_eq!(t.to_bytes(), fresh.to_bytes());
}

#[test]
fn binary_string_shrink_pads_in_place_growth_reflows() {
    let mut t =
        MessageTemplate::build(bin_cfg(), &mesh_op(), &mesh_args(1, &[1.0], "abcdef")).unwrap();
    let len0 = t.message_len();
    // Shrink: the string record rewrites inside its width, padding the
    // slack with spaces; total length is unchanged.
    t.update_args(&mesh_args(1, &[1.0], "ab")).unwrap();
    let r = t.flush();
    assert_eq!(r.shifts, 0);
    assert_eq!(t.message_len(), len0);
    let bytes = t.to_bytes();
    assert_eq!(&bytes[bytes.len() - 5..], b"    \x0B");
    // Growth past the width shifts, like an XML string.
    t.update_args(&mesh_args(1, &[1.0], "abcdefghij")).unwrap();
    t.flush();
    let fresh =
        MessageTemplate::build(bin_cfg(), &mesh_op(), &mesh_args(1, &[1.0], "abcdefghij")).unwrap();
    assert_eq!(t.to_bytes(), fresh.to_bytes());
}

#[test]
fn cost_gate_prices_binary_rebuilds_in_binary_bytes() {
    // The §5 break-even gate compares plan cost to rebuild_estimate =
    // total_len + leaves. A binary template of the same payload is
    // far smaller than its XML twin, so the gate automatically prices
    // a binary rebuild cheaper — the lane needs no special casing.
    let op = mesh_op();
    let args = mesh_args(6, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], "tag");
    let bin = MessageTemplate::build(bin_cfg(), &op, &args).unwrap();
    let xml = MessageTemplate::build(EngineConfig::paper_default(), &op, &args).unwrap();
    assert!(
        bin.rebuild_estimate() < xml.rebuild_estimate(),
        "binary rebuild ({}) must be priced below XML rebuild ({})",
        bin.rebuild_estimate(),
        xml.rebuild_estimate()
    );
    assert_eq!(
        bin.rebuild_estimate(),
        bin.message_len() as u64 + bin.dut().len() as u64
    );
}

// ---------------------------------------------------------------------
// The frame plan against a reference walk (DESIGN §3.2): the builder
// compiles a schema's framing once and runs flat steps per value; the
// reference below asks for every tag where it writes it, one value at a
// time. Both must produce the same bytes and the same DUT.
// ---------------------------------------------------------------------

/// A DUT entry as the reference predicts it; `at` is the value's document
/// offset (a `Loc` with the chunk boundaries taken out).
#[derive(Debug, PartialEq)]
struct Leaf {
    at: usize,
    kind: ScalarKind,
    ser_len: u32,
    width: u32,
    suffix_len: u32,
    value: Scalar,
}

struct Reference {
    config: EngineConfig,
    bytes: Vec<u8>,
    leaves: Vec<Leaf>,
}

impl Reference {
    fn xml(&self) -> bool {
        self.config.wire_format == WireFormat::SoapXml
    }

    /// `(open, close)` around one value of `desc` named `name`.
    fn tags(&self, name: &str, desc: &TypeDesc) -> (Vec<u8>, Vec<u8>) {
        let marks = |open: u8, close: u8| (vec![open], vec![close]);
        match desc {
            _ if self.xml() => {
                let open = match desc {
                    TypeDesc::Array { item } => soap::array_open_parts(name, &item.xsi_type()).0,
                    _ => soap::scalar_open(name, &desc.xsi_type()),
                };
                (open.into_bytes(), soap::elem_close(name).into_bytes())
            }
            TypeDesc::Scalar(_) => (Vec::new(), Vec::new()),
            TypeDesc::Struct { .. } => marks(wire::STRUCT_BEGIN, wire::STRUCT_END),
            TypeDesc::Array { .. } => marks(wire::ARRAY_BEGIN, wire::ARRAY_END),
        }
    }

    fn leaf(&mut self, value: Scalar, close: &[u8], floor: usize) {
        let (at, kind) = (self.bytes.len(), value.kind());
        if self.xml() {
            value.append_lexical(&mut self.bytes, self.config.float, self.config.kernel);
        } else {
            wire::write_leaf(&mut self.bytes, &value);
        }
        let ser_len = self.bytes.len() - at;
        let stuffed = self.config.width.initial_width(kind, ser_len).max(floor);
        let width = if self.xml() { stuffed } else { ser_len };
        self.bytes.extend_from_slice(close);
        self.bytes.resize(at + width + close.len(), b' ');
        let (ser_len, width, suffix_len) = (ser_len as u32, width as u32, close.len() as u32);
        self.leaves.push(Leaf {
            at,
            kind,
            ser_len,
            width,
            suffix_len,
            value,
        });
    }

    fn value(&mut self, name: &str, desc: &TypeDesc, v: &Value) {
        let (open, close) = self.tags(name, desc);
        self.bytes.extend_from_slice(&open);
        let sep: &[u8] = if self.xml() { b"\n" } else { b"" };
        match (desc, v) {
            (TypeDesc::Struct { fields, .. }, Value::Struct(vals)) => {
                assert_eq!(fields.len(), vals.len());
                for ((fname, fdesc), fval) in fields.iter().zip(vals) {
                    self.value(fname, fdesc, fval);
                }
                self.bytes.extend_from_slice(&close);
            }
            (TypeDesc::Array { item }, v) => {
                let elems = boxed(v);
                let count_close: &[u8] = if self.xml() { b"]\">" } else { b"" };
                let floor = if self.xml() { INT_MAX_WIDTH } else { 0 };
                self.leaf(Scalar::Int(elems.len() as i32), count_close, floor);
                self.bytes.extend_from_slice(sep);
                elems
                    .iter()
                    .for_each(|e| self.value(soap::ITEM_NAME, item, e));
                self.bytes.extend_from_slice(&close);
            }
            (TypeDesc::Scalar(_), v) => self.leaf(scalar_of(v), &close, 0),
            (d, v) => panic!("generated {v:?} for {d:?}"),
        }
    }

    fn message(config: EngineConfig, op: &OpDesc, args: &[Value]) -> Reference {
        let mut r = Reference {
            config,
            bytes: Vec::new(),
            leaves: Vec::new(),
        };
        if r.xml() {
            let head = [
                soap::XML_DECL,
                &soap::envelope_open(&op.namespace),
                soap::BODY_OPEN,
                &soap::op_open(&op.name),
            ];
            r.bytes.extend_from_slice(head.concat().as_bytes());
        } else {
            wire::write_prologue(&mut r.bytes, &op.name, op.params.len());
        }
        for (p, arg) in op.params.iter().zip(args) {
            r.value(&p.name, &p.desc, arg);
            if r.xml() {
                r.bytes.push(b'\n');
            }
        }
        if r.xml() {
            let tail = [&soap::op_close(&op.name), soap::CLOSES];
            r.bytes.extend_from_slice(tail.concat().as_bytes());
        } else {
            r.bytes.push(wire::END);
        }
        r
    }
}

fn scalar_of(v: &Value) -> Scalar {
    match v {
        Value::Int(x) => Scalar::Int(*x),
        Value::Long(x) => Scalar::Long(*x),
        Value::Double(x) => Scalar::Double(*x),
        Value::Bool(x) => Scalar::Bool(*x),
        Value::Str(x) => Scalar::Str(x.as_str().into()),
        other => panic!("{other:?} is no scalar"),
    }
}

/// An array value's elements, unboxed runs boxed.
fn boxed(v: &Value) -> Vec<Value> {
    match v {
        Value::DoubleArray(xs) => xs.iter().map(|&x| Value::Double(x)).collect(),
        Value::IntArray(xs) => xs.iter().map(|&x| Value::Int(x)).collect(),
        Value::Array(elems) => elems.clone(),
        other => panic!("{other:?} is no array"),
    }
}

/// The template's DUT with every `Loc` turned into a document offset.
fn dut_of(t: &MessageTemplate) -> Vec<Leaf> {
    let slices = t.io_slices();
    assert_eq!(slices.len(), t.chunk_count(), "no chunk is empty");
    let starts: Vec<usize> = slices
        .iter()
        .scan(0, |at, s| Some(std::mem::replace(at, *at + s.len())))
        .collect();
    let entries = t.dut().entries().iter();
    entries
        .map(|e| Leaf {
            at: starts[e.loc.chunk as usize] + e.loc.offset as usize,
            kind: e.kind,
            ser_len: e.ser_len,
            width: e.width,
            suffix_len: e.suffix_len,
            value: e.value.clone(),
        })
        .collect()
}

/// A small deterministic generator: one `u64` from proptest names the
/// whole case, so a failure replays from its seed.
struct Gen(u64);

impl Gen {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }

    fn kind(&mut self) -> ScalarKind {
        use ScalarKind::*;
        [Int, Long, Double, Bool, Str][self.below(5)]
    }

    /// A struct of scalars and (to `depth`) structs.
    fn strukt(&mut self, depth: usize) -> TypeDesc {
        let fields = (0..1 + self.below(3)).map(|i| {
            let desc = match self.below(4) {
                0 if depth > 0 => self.strukt(depth - 1),
                _ => TypeDesc::Scalar(self.kind()),
            };
            (format!("f{i}"), desc)
        });
        TypeDesc::Struct {
            fields: fields.collect(),
            name: format!("S{depth}"),
        }
    }

    fn param(&mut self) -> TypeDesc {
        match self.below(6) {
            0 => TypeDesc::Scalar(self.kind()),
            1 => self.strukt(2),
            2 => TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
            3 => TypeDesc::array_of(TypeDesc::Scalar(self.kind())),
            _ => TypeDesc::array_of(self.strukt(2)),
        }
    }

    /// A value of `desc`; arrays get `len` elements.
    fn value(&mut self, desc: &TypeDesc, len: usize) -> Value {
        const STRS: [&str; 5] = [
            "",
            "a",
            "a<b&c>\"d'",
            "]]>&amp;\r\n",
            "forty bytes of text, no specials",
        ];
        const F64S: [f64; 6] = [0.0, -0.0, 1.5, 1e300, -2.5e-10, 123_456.789];
        const INTS: [i32; 4] = [0, -1, i32::MIN, 42];
        match desc {
            TypeDesc::Scalar(ScalarKind::Int) => Value::Int(INTS[self.below(4)]),
            TypeDesc::Scalar(ScalarKind::Long) => Value::Long([0, i64::MAX, -7][self.below(3)]),
            TypeDesc::Scalar(ScalarKind::Double) => Value::Double(F64S[self.below(6)]),
            TypeDesc::Scalar(ScalarKind::Bool) => Value::Bool(self.below(2) == 0),
            TypeDesc::Scalar(ScalarKind::Str) => Value::Str(STRS[self.below(5)].to_owned()),
            TypeDesc::Struct { fields, .. } => {
                Value::Struct(fields.iter().map(|(_, d)| self.value(d, 0)).collect())
            }
            // Runs of doubles and ints also travel unboxed.
            TypeDesc::Array { item } => match (&**item, self.below(2)) {
                (TypeDesc::Scalar(ScalarKind::Double), 0) => {
                    Value::DoubleArray((0..len).map(|_| F64S[self.below(6)]).collect())
                }
                (TypeDesc::Scalar(ScalarKind::Int), 0) => {
                    Value::IntArray((0..len).map(|_| INTS[self.below(4)]).collect())
                }
                _ => Value::Array((0..len).map(|_| self.value(item, 0)).collect()),
            },
        }
    }
}

/// `args` with every array cut to its first `keep(len)` elements.
fn truncated(args: &[Value], keep: impl Fn(usize) -> usize) -> Vec<Value> {
    let cut = |v: &Value| match v {
        Value::DoubleArray(xs) => Value::DoubleArray(xs[..keep(xs.len())].to_vec()),
        Value::IntArray(xs) => Value::IntArray(xs[..keep(xs.len())].to_vec()),
        Value::Array(elems) => Value::Array(elems[..keep(elems.len())].to_vec()),
        other => other.clone(),
    };
    args.iter().map(cut).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn the_frame_plan_builds_what_a_per_value_walk_builds(seed in any::<u64>()) {
        let mut g = Gen(seed | 1);
        let params: Vec<ParamDesc> = (0..1 + g.below(4))
            .map(|i| ParamDesc { name: format!("p{i}"), desc: g.param() })
            .collect();
        let op = OpDesc::new("op", "urn:plan", params);
        let args: Vec<Value> = op.params.iter().map(|p| {
            let len = [0, 1, 2, 5, 9][g.below(5)];
            g.value(&p.desc, len)
        }).collect();
        // Small chunks put boundaries between most leaf regions.
        let tiny = ChunkConfig { initial_size: 160, split_threshold: 320, reserve: 24 };
        let chunk = [ChunkConfig::k32(), tiny][g.below(2)];
        for lane in WireFormat::ALL {
            let config = cfg(lane).with_chunk(chunk);
            let fresh = MessageTemplate::build(config, &op, &args).unwrap();
            fresh.assert_invariants();
            let reference = Reference::message(config, &op, &args);
            prop_assert_eq!(fresh.to_bytes(), reference.bytes);
            prop_assert_eq!(dut_of(&fresh), reference.leaves);

            // `ArrayInfo` is read back by the resizes: a grow appends at
            // `content_end`, a shrink deletes from the last kept leaf's
            // region end + `elem_close_run` (or `content_start`) up to
            // `content_end`. Grow by k from a shorter build, then shrink.
            let shorter = truncated(&args, |len| len / 2);
            let mut t = MessageTemplate::build(config, &op, &shorter).unwrap();
            t.update_args(&args).unwrap();
            t.flush();
            t.assert_invariants();
            prop_assert_eq!(t.to_bytes(), fresh.to_bytes());
            prop_assert_eq!(dut_of(&t), dut_of(&fresh));
            let keep = g.below(3);
            let shrunk = truncated(&args, |len| len.min(keep));
            t.update_args(&shrunk).unwrap();
            t.flush();
            t.assert_invariants();
            let fresh = MessageTemplate::build(config, &op, &shrunk).unwrap();
            prop_assert_eq!(t.to_bytes(), fresh.to_bytes());

            // A value of the wrong shape is the typed error the argument
            // check gives, from a build, a diff and an overlaid send, and
            // none of them changes what was saved.
            let mut bad = args.clone();
            let at = g.below(bad.len());
            bad[at] = match &bad[at] {
                Value::Struct(vals) => Value::Struct(vals[1..].to_vec()),
                Value::Array(elems) if !elems.is_empty() => {
                    let mut elems = elems.clone();
                    elems.push(Value::Array(Vec::new()));
                    Value::Array(elems)
                }
                _ => Value::Struct(Vec::new()),
            };
            let expected = format!("{:?}", op.check_args(&bad).unwrap_err());
            let refused = MessageTemplate::build(config, &op, &bad).unwrap_err();
            prop_assert!(matches!(
                refused,
                EngineError::TypeMismatch { .. } | EngineError::StructureMismatch { .. }
            ));
            prop_assert_eq!(format!("{refused:?}"), expected.clone());
            let before = t.to_bytes();
            prop_assert_eq!(format!("{:?}", t.update_args(&bad).unwrap_err()), expected);
            prop_assert_eq!(t.to_bytes(), before);

            // The overlay entry too, on an operation of that parameter
            // alone, through a window the good value warmed: the error
            // `check_args` gives, and not a byte on the wire.
            let single = OpDesc::new("op", "urn:plan", vec![op.params[at].clone()]);
            if single.sole_array().is_ok() {
                let mut sender = OverlaySender::new(config, &single, 2).unwrap();
                sender.send(&args[at], &mut Vec::new()).unwrap();
                let expected = format!("{:?}", single.check_args(&bad[at..=at]).unwrap_err());
                let mut wire = Vec::new();
                let refused = sender.send(&bad[at], &mut wire).unwrap_err();
                prop_assert_eq!(format!("{refused:?}"), expected);
                prop_assert!(wire.is_empty());
            }
        }
    }
}
