//! Seeded workload generators. The program under test only ever sees the
//! `Value`s produced here; the same seed gives the same argument sequence.

use bsoap::convert::FloatFormatter;
use bsoap::{mio, Value};
use std::collections::HashSet;

const ECHO_LEN: usize = 100;
const PATCH_LEN: usize = 2000;
pub const PATCH_DIRTY: usize = 500;
const GROW_BASE: usize = 2000;
pub const GROW_TAIL: usize = 100;
pub const MIX_OPS: usize = 32;
const MIX_CELLS_MIN: usize = 200;
const MIX_CELLS_MAX: usize = 600;
const MIX_LABEL_LEN: usize = 48;
pub const BULK_LEN: usize = 25_000;
/// One element in ten is rewritten per `bulk_stream` call.
const BULK_DIRTY_DIV: usize = 10;
const POOL_SIZE: usize = 4096;
/// Serialized width of every pooled double.
const WIDE: usize = 16;

/// 64-bit linear congruential generator (Knuth's MMIX constants), high half
/// out. Small, fast, and identical everywhere — the argument stream must not
/// depend on a library's RNG.
#[derive(Clone, Debug)]
pub struct Lcg(u64);

impl Lcg {
    pub fn new(seed: u64) -> Self {
        let mut l = Lcg(seed ^ 0x9E37_79B9_7F4A_7C15);
        l.next_u32();
        l
    }

    pub fn next_u32(&mut self) -> u32 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 32) as u32
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        debug_assert!(n > 0 && n <= u32::MAX as usize);
        ((self.next_u32() as u64 * n as u64) >> 32) as usize
    }
}

/// Pre-built fixed-width doubles, so that drawing an argument costs a table
/// look-up (argument generation must stay under ~2 % of a call).
///
/// Every value has 15 significant digits with a non-zero first and last
/// digit, so its shortest round-trip form is exactly those digits plus the
/// point: 16 characters. Random doubles vary in width and silently turn an
/// in-place patch workload into a shifting one.
#[derive(Clone, Debug)]
pub struct Pool {
    wide: Vec<f64>,
}

impl Pool {
    pub fn new(rng: &mut Lcg) -> Self {
        let mut seen = HashSet::with_capacity(POOL_SIZE);
        let mut wide = Vec::with_capacity(POOL_SIZE);
        let mut buf = [0u8; 32];
        while wide.len() < POOL_SIZE {
            let mut mantissa = 1 + rng.below(9) as u64;
            for _ in 0..13 {
                mantissa = mantissa * 10 + rng.below(10) as u64;
            }
            mantissa = mantissa * 10 + 1 + rng.below(9) as u64;
            // Both operands are exact doubles, so the quotient is the
            // correctly rounded value of the 15-digit decimal.
            let v = mantissa as f64 / 1e14;
            let n = FloatFormatter::Exact2004.write_f64(&mut buf, v);
            assert_eq!(
                n,
                WIDE,
                "pooled double {v} serialized as {:?}",
                std::str::from_utf8(&buf[..n])
            );
            if seen.insert(v.to_bits()) {
                wide.push(v);
            }
        }
        Pool { wide }
    }

    fn draw(&self, rng: &mut Lcg) -> f64 {
        self.wide[rng.below(self.wide.len())]
    }

    /// A pooled value different from `old`, so a rewritten slot is dirty.
    fn draw_other(&self, rng: &mut Lcg, old: f64) -> f64 {
        loop {
            let v = self.draw(rng);
            if v.to_bits() != old.to_bits() {
                return v;
            }
        }
    }
}

/// A numeric leaf the generator wrote, for re-running its conversion.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Num {
    F(f64),
    I(i32),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    EchoSmall,
    /// Also drives `patch_mid_bin1`: identical inputs, other lane.
    PatchMid,
    GrowCycle,
    ColdMix,
    BulkStream,
}

/// Which step of its trajectory the current call is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// The only phase of every workload but `grow_cycle`.
    Steady,
    /// `grow_cycle` (a): 100 one-digit values appended.
    Append,
    /// `grow_cycle` (b): those 100 rewritten 16 characters wide.
    Widen,
    /// `grow_cycle` (c): array cut back to its base length.
    Truncate,
}

/// What the server must answer for the current arguments.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Expect {
    /// Left-to-right sum of the array (also its length, for the stream sink).
    Sum { total: f64, items: usize },
    /// `cold_mix`: label length plus all coordinates, and the field sum.
    Mix { check: i64, total: f64 },
}

pub struct Gen {
    kind: Kind,
    rng: Lcg,
    pool: Pool,
    /// One argument list per operation (32 for `cold_mix`, else 1).
    args: Vec<Vec<Value>>,
    op: usize,
    phase: Phase,
    changed: Vec<Num>,
    /// Position permutation (patch / bulk) or operation order (`cold_mix`).
    perm: Vec<u32>,
    calls: u64,
}

impl Gen {
    pub fn new(kind: Kind, seed: u64, bulk_len: usize) -> Self {
        let mut rng = Lcg::new(seed);
        let pool = Pool::new(&mut rng);
        let doubles = |rng: &mut Lcg, n: usize| -> Vec<Value> {
            vec![Value::DoubleArray((0..n).map(|_| pool.draw(rng)).collect())]
        };
        let (args, perm_len) = match kind {
            Kind::EchoSmall => (vec![doubles(&mut rng, ECHO_LEN)], 0),
            Kind::PatchMid => (vec![doubles(&mut rng, PATCH_LEN)], PATCH_LEN),
            Kind::GrowCycle => (vec![doubles(&mut rng, GROW_BASE)], 0),
            Kind::BulkStream => (vec![doubles(&mut rng, bulk_len)], bulk_len),
            Kind::ColdMix => {
                let args = (0..MIX_OPS)
                    .map(|k| {
                        let cells = (0..mix_cells(k)).map(|_| mio(0, 0, 0.0)).collect();
                        vec![Value::Str(String::new()), Value::Array(cells)]
                    })
                    .collect();
                (args, MIX_OPS)
            }
        };
        Gen {
            kind,
            rng,
            pool,
            args,
            op: 0,
            phase: Phase::Steady,
            changed: Vec::new(),
            perm: (0..perm_len as u32).collect(),
            calls: 0,
        }
    }

    /// Produce the arguments of the next call.
    pub fn advance(&mut self) {
        self.changed.clear();
        let first = self.calls == 0;
        self.calls += 1;
        match self.kind {
            Kind::EchoSmall => {}
            Kind::PatchMid => {
                if !first {
                    self.rewrite_positions(PATCH_DIRTY);
                }
            }
            Kind::BulkStream => {
                if !first {
                    self.rewrite_positions(self.perm.len() / BULK_DIRTY_DIV);
                }
            }
            Kind::GrowCycle => {
                if !first {
                    self.grow_step();
                }
            }
            Kind::ColdMix => self.mix_step(),
        }
    }

    /// Rewrite `count` distinct seeded positions of the double array with
    /// other pooled values (a partial Fisher–Yates over a persistent
    /// permutation picks them without repeats).
    fn rewrite_positions(&mut self, count: usize) {
        let Value::DoubleArray(xs) = &mut self.args[0][0] else {
            unreachable!("double-array workload")
        };
        let n = self.perm.len();
        for i in 0..count {
            let j = i + self.rng.below(n - i);
            self.perm.swap(i, j);
            let at = self.perm[i] as usize;
            let v = self.pool.draw_other(&mut self.rng, xs[at]);
            xs[at] = v;
            self.changed.push(Num::F(v));
        }
    }

    /// The stationary three-step cycle. A plain "widen random fields" loop
    /// stops shifting once the fields have grown; this one shifts forever.
    fn grow_step(&mut self) {
        let Value::DoubleArray(xs) = &mut self.args[0][0] else {
            unreachable!("double-array workload")
        };
        self.phase = match self.phase {
            Phase::Steady | Phase::Truncate => {
                for _ in 0..GROW_TAIL {
                    let v = (1 + self.rng.below(9)) as f64;
                    xs.push(v);
                    self.changed.push(Num::F(v));
                }
                Phase::Append
            }
            Phase::Append => {
                for x in &mut xs[GROW_BASE..] {
                    *x = self.pool.draw(&mut self.rng);
                    self.changed.push(Num::F(*x));
                }
                Phase::Widen
            }
            Phase::Widen => {
                xs.truncate(GROW_BASE);
                Phase::Truncate
            }
        };
    }

    /// Next operation of a seeded order that visits every operation once per
    /// 32 calls, with every value of its arguments fresh.
    fn mix_step(&mut self) {
        let at = (self.calls as usize - 1) % MIX_OPS;
        if at == 0 {
            for i in 0..MIX_OPS - 1 {
                let j = i + self.rng.below(MIX_OPS - i);
                self.perm.swap(i, j);
            }
        }
        self.op = self.perm[at] as usize;
        let [Value::Str(label), Value::Array(cells)] = &mut self.args[self.op][..] else {
            unreachable!("cold_mix argument shape")
        };
        fill_label(label, &mut self.rng);
        for cell in cells {
            let Value::Struct(fields) = cell else {
                unreachable!("cold_mix cell shape")
            };
            let x = self.rng.below(1_000_000) as i32;
            let y = self.rng.below(1_000_000) as i32;
            let v = self.pool.draw(&mut self.rng);
            fields[0] = Value::Int(x);
            fields[1] = Value::Int(y);
            fields[2] = Value::Double(v);
            self.changed.extend([Num::I(x), Num::I(y), Num::F(v)]);
        }
    }

    /// Index of the operation the current call invokes.
    pub fn op(&self) -> usize {
        self.op
    }

    pub fn args(&self) -> &[Value] {
        &self.args[self.op]
    }

    /// Numeric leaves this call rewrote (all of them for `cold_mix`).
    pub fn changed(&self) -> &[Num] {
        &self.changed
    }

    pub fn phase(&self) -> Phase {
        self.phase
    }

    pub fn expect(&self) -> Expect {
        match &self.args[self.op][..] {
            [Value::DoubleArray(xs)] => Expect::Sum {
                total: sum_in_order(xs),
                items: xs.len(),
            },
            [Value::Str(label), Value::Array(cells)] => {
                let (check, total) = mix_reply(label, cells);
                Expect::Mix { check, total }
            }
            _ => unreachable!("generator argument shape"),
        }
    }
}

/// Cells of `cold_mix` operation `k`: 200..=600, fixed per operation so the
/// working set (~1.8 MB of templates) does not depend on the seed.
pub fn mix_cells(k: usize) -> usize {
    MIX_CELLS_MIN + k * (MIX_CELLS_MAX - MIX_CELLS_MIN) / (MIX_OPS - 1)
}

/// A 48-character label with exactly two each of `&`, `<` and `>` at seeded
/// positions, so the escaper always has work and the escaped length is fixed.
fn fill_label(label: &mut String, rng: &mut Lcg) {
    const ALNUM: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
    let mut bytes = [0u8; MIX_LABEL_LEN];
    for b in &mut bytes {
        *b = ALNUM[rng.below(ALNUM.len())];
    }
    let mut placed = 0;
    while placed < 6 {
        let at = rng.below(MIX_LABEL_LEN);
        if bytes[at].is_ascii_alphanumeric() {
            bytes[at] = b"&&<<>>"[placed];
            placed += 1;
        }
    }
    label.clear();
    label.push_str(std::str::from_utf8(&bytes).expect("ASCII label"));
}

/// The sum a handler computes; shared so client and server add in one order.
pub fn sum_in_order(xs: &[f64]) -> f64 {
    xs.iter().sum()
}

/// `cold_mix` reply: `(label length + Σ(x + y), Σ value)`.
pub fn mix_reply(label: &str, cells: &[Value]) -> (i64, f64) {
    let mut check = label.len() as i64;
    let mut total = 0.0;
    for cell in cells {
        if let Value::Struct(fields) = cell {
            if let [Value::Int(x), Value::Int(y), Value::Double(v)] = fields[..] {
                check += x as i64 + y as i64;
                total += v;
            }
        }
    }
    (check, total)
}

/// Every numeric leaf of an argument list, in document order.
pub fn collect_leaves(args: &[Value], out: &mut Vec<Num>) {
    for v in args {
        match v {
            Value::Int(i) => out.push(Num::I(*i)),
            Value::Double(d) => out.push(Num::F(*d)),
            Value::DoubleArray(xs) => out.extend(xs.iter().map(|d| Num::F(*d))),
            Value::IntArray(xs) => out.extend(xs.iter().map(|i| Num::I(*i))),
            Value::Struct(vs) | Value::Array(vs) => collect_leaves(vs, out),
            Value::Long(_) | Value::Bool(_) | Value::Str(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsoap::baseline::GSoapLike;
    use bsoap::convert::ScalarKind;
    use bsoap::{OpDesc, ParamDesc, TypeDesc};

    #[test]
    fn lcg_is_deterministic_per_seed() {
        let draw = |seed| {
            let mut l = Lcg::new(seed);
            (0..8).map(|_| l.next_u32()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
        // Pinned: the argument stream of a seed must never drift.
        assert_eq!(draw(1)[..3], [1_109_449_899, 2_831_165_139, 3_239_875_678]);
        let mut l = Lcg::new(7);
        assert!((0..10_000).all(|_| l.below(10) < 10));
    }

    fn op_for(kind: Kind) -> OpDesc {
        let doubles = TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double));
        match kind {
            Kind::ColdMix => OpDesc::new(
                "put",
                "urn:bench",
                vec![
                    ParamDesc {
                        name: "label".into(),
                        desc: TypeDesc::Scalar(ScalarKind::Str),
                    },
                    ParamDesc {
                        name: "cells".into(),
                        desc: TypeDesc::array_of(TypeDesc::mio()),
                    },
                ],
            ),
            _ => OpDesc::single("sum", "urn:bench", "xs", doubles),
        }
    }

    /// Serialized bytes of the first `calls` argument lists of a seed.
    fn wire(kind: Kind, seed: u64, calls: usize) -> Vec<Vec<u8>> {
        let op = op_for(kind);
        let mut gen = Gen::new(kind, seed, 500);
        let mut ser = GSoapLike::new();
        (0..calls)
            .map(|_| {
                gen.advance();
                ser.serialize(&op, gen.args()).unwrap().to_vec()
            })
            .collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_argument_sequences() {
        for kind in [
            Kind::EchoSmall,
            Kind::PatchMid,
            Kind::GrowCycle,
            Kind::ColdMix,
            Kind::BulkStream,
        ] {
            let a = wire(kind, 5, 12);
            assert_eq!(a, wire(kind, 5, 12), "{kind:?}");
            assert_ne!(a, wire(kind, 6, 12), "{kind:?}");
        }
    }

    #[test]
    fn patch_rewrites_exactly_the_dirty_count_in_place() {
        let mut gen = Gen::new(Kind::PatchMid, 3, 0);
        gen.advance();
        assert!(gen.changed().is_empty(), "first call is the initial array");
        let before = gen.args().to_vec();
        gen.advance();
        assert_eq!(gen.changed().len(), PATCH_DIRTY);
        let (Value::DoubleArray(a), Value::DoubleArray(b)) = (&before[0], &gen.args()[0]) else {
            panic!("shape")
        };
        assert_eq!(a.len(), b.len());
        let differing = a.iter().zip(b).filter(|(x, y)| x != y).count();
        assert_eq!(differing, PATCH_DIRTY, "distinct positions, new values");
    }

    #[test]
    fn grow_cycle_is_stationary() {
        let mut gen = Gen::new(Kind::GrowCycle, 3, 0);
        gen.advance();
        let mut phases = Vec::new();
        for _ in 0..6 {
            gen.advance();
            let len = gen.args()[0].array_len().unwrap();
            phases.push((gen.phase(), len, gen.changed().len()));
        }
        let cycle = [
            (Phase::Append, GROW_BASE + GROW_TAIL, GROW_TAIL),
            (Phase::Widen, GROW_BASE + GROW_TAIL, GROW_TAIL),
            (Phase::Truncate, GROW_BASE, 0),
        ];
        assert_eq!(phases[..3], cycle);
        assert_eq!(phases[3..], cycle);
    }

    #[test]
    fn cold_mix_visits_every_operation_once_per_cycle() {
        let mut gen = Gen::new(Kind::ColdMix, 9, 0);
        for _ in 0..3 {
            let mut seen = [false; MIX_OPS];
            for _ in 0..MIX_OPS {
                gen.advance();
                assert!(!std::mem::replace(&mut seen[gen.op()], true));
                let cells = gen.args()[1].array_len().unwrap();
                assert_eq!(cells, mix_cells(gen.op()));
                assert_eq!(gen.changed().len(), 3 * cells);
                let Value::Str(label) = &gen.args()[0] else {
                    panic!("shape")
                };
                assert_eq!(label.len(), MIX_LABEL_LEN);
                for special in ['&', '<', '>'] {
                    assert_eq!(label.matches(special).count(), 2);
                }
            }
        }
        assert_eq!(mix_cells(0), MIX_CELLS_MIN);
        assert_eq!(mix_cells(MIX_OPS - 1), MIX_CELLS_MAX);
    }

    #[test]
    fn collect_leaves_walks_structs_and_arrays() {
        let args = [
            Value::Str("skip".into()),
            Value::Array(vec![mio(1, 2, 0.5), mio(3, 4, 1.5)]),
            Value::DoubleArray(vec![2.5]),
        ];
        let mut out = Vec::new();
        collect_leaves(&args, &mut out);
        assert_eq!(
            out,
            [
                Num::I(1),
                Num::I(2),
                Num::F(0.5),
                Num::I(3),
                Num::I(4),
                Num::F(1.5),
                Num::F(2.5)
            ]
        );
    }
}
