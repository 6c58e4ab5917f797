//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans live in a pre-allocated vector and are written out when the run
//! ends. The recorder is a type parameter of the staged run: with [`Off`]
//! every clock read and push compiles away, and the difference between the
//! two instantiations is the tracing overhead.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Spans of one call share this.
    pub call: u32,
    pub name: &'static str,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Timed on a twin instance fed the same bytes and laid out inside its
    /// parent's interval, because the real call is one opaque public function.
    pub twin: bool,
}

pub trait Recorder {
    fn now(&self) -> u64;
    /// While not live (warm-up) nothing is kept.
    fn set_live(&mut self, live: bool);
    fn begin_call(&mut self, call: u32);
    /// Record a finished span; returns its index for use as a parent.
    fn span(&mut self, name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> u32;
    /// Record a span whose end is not known yet.
    fn open(&mut self, name: &'static str, parent: u32, start_ns: u64) -> u32;
    fn close(&mut self, id: u32, end_ns: u64);
}

/// The compiled-out recorder.
pub struct Off;

impl Recorder for Off {
    #[inline(always)]
    fn now(&self) -> u64 {
        0
    }
    #[inline(always)]
    fn set_live(&mut self, _: bool) {}
    #[inline(always)]
    fn begin_call(&mut self, _: u32) {}
    #[inline(always)]
    fn span(&mut self, _: &'static str, _: u32, _: u64, _: u64) -> u32 {
        0
    }
    #[inline(always)]
    fn open(&mut self, _: &'static str, _: u32, _: u64) -> u32 {
        0
    }
    #[inline(always)]
    fn close(&mut self, _: u32, _: u64) {}
}

pub struct On {
    epoch: Instant,
    call: u32,
    live: bool,
    pub spans: Vec<Span>,
}

impl On {
    pub fn with_capacity(spans: usize) -> Self {
        On {
            epoch: Instant::now(),
            call: 0,
            live: false,
            spans: Vec::with_capacity(spans),
        }
    }
}

impl Recorder for On {
    #[inline]
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn set_live(&mut self, live: bool) {
        self.live = live;
    }

    fn begin_call(&mut self, call: u32) {
        self.call = call;
    }

    #[inline]
    fn span(&mut self, name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> u32 {
        if !self.live {
            return NO_PARENT;
        }
        self.spans.push(Span {
            call: self.call,
            name,
            parent,
            start_ns,
            end_ns,
            twin: false,
        });
        self.spans.len() as u32 - 1
    }

    fn open(&mut self, name: &'static str, parent: u32, start_ns: u64) -> u32 {
        self.span(name, parent, start_ns, start_ns)
    }

    fn close(&mut self, id: u32, end_ns: u64) {
        if let Some(s) = self.spans.get_mut(id as usize) {
            s.end_ns = end_ns;
        }
    }
}

/// Add work that was timed on a twin instance (fed the same bytes in another
/// pass) as children of the `parent_name` span of `call`, laid out one after
/// the other from the parent's start.
pub fn add_twin_children(
    spans: &mut Vec<Span>,
    call: u32,
    parent_name: &str,
    children: &[(&'static str, u64)],
) {
    let Some(parent) = spans
        .iter()
        .position(|s| s.call == call && s.name == parent_name)
    else {
        return;
    };
    let mut start = spans[parent].start_ns;
    for &(name, duration_ns) in children {
        spans.push(Span {
            call,
            name,
            parent: parent as u32,
            start_ns: start,
            end_ns: start + duration_ns,
            twin: true,
        });
        start += duration_ns;
    }
}

/// A span's self time: its duration minus the part of its interval that its
/// direct children cover (overlapping children are not counted twice, and a
/// child is clipped to its parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != NO_PARENT {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let Some(kids) = children.get_mut(&(i as u32)) else {
                return s.end_ns - s.start_ns;
            };
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Total and self time of one stage within one call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageTime {
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Per call (in call order), time by span name.
pub fn per_call(spans: &[Span]) -> Vec<BTreeMap<&'static str, StageTime>> {
    let mut calls: BTreeMap<u32, BTreeMap<&'static str, StageTime>> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let slot = calls.entry(s.call).or_default().entry(s.name).or_default();
        slot.total_ns += s.end_ns - s.start_ns;
        slot.self_ns += self_ns;
    }
    calls.into_values().collect()
}

/// One JSON object per line: `name, start_ns, end_ns, parent, call_id`.
pub fn write_jsonl(spans: &[Span], out: &mut impl Write) -> std::io::Result<()> {
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            "null".to_owned()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{{\"id\":{i},\"call_id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"twin\":{}}}",
            s.call, s.name, s.start_ns, s.end_ns, s.twin
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            call: 0,
            name,
            parent,
            start_ns,
            end_ns,
            twin: false,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let spans = [
            span("root", NO_PARENT, 0, 100),
            span("a", 0, 10, 40),
            // Grandchild: comes off `a`, not off the root.
            span("a.inner", 1, 15, 25),
            // Overlaps `a` by 10 and sticks out of the root by 20.
            span("b", 0, 30, 120),
            span("leaf", NO_PARENT, 200, 230),
        ];
        assert_eq!(self_times(&spans), [10, 20, 10, 90, 30]);
    }

    #[test]
    fn twin_children_are_laid_out_inside_their_parent() {
        let mut rec = On::with_capacity(8);
        rec.set_live(true);
        rec.begin_call(3);
        let root = rec.open("rpc.call", NO_PARENT, 1000);
        rec.span("server.dispatch", root, 1100, 1400);
        rec.close(root, 2000);
        add_twin_children(
            &mut rec.spans,
            3,
            "server.dispatch",
            &[("deser.request", 120), ("server.handler", 30)],
        );
        add_twin_children(&mut rec.spans, 4, "server.dispatch", &[("lost", 1)]);
        assert_eq!(
            rec.spans[2..]
                .iter()
                .map(|s| (s.name, s.start_ns, s.end_ns, s.twin))
                .collect::<Vec<_>>(),
            [
                ("deser.request", 1100, 1220, true),
                ("server.handler", 1220, 1250, true)
            ]
        );
        let calls = per_call(&rec.spans);
        assert_eq!(calls.len(), 1);
        assert_eq!(
            calls[0]["server.dispatch"],
            StageTime {
                total_ns: 300,
                self_ns: 150
            }
        );
        assert_eq!(calls[0]["rpc.call"].self_ns, 700);
    }

    #[test]
    fn warm_up_records_nothing_and_off_is_inert() {
        let mut rec = On::with_capacity(4);
        let id = rec.span("core.diff", NO_PARENT, 0, 5);
        rec.close(id, 9);
        assert!(rec.spans.is_empty());
        let mut off = Off;
        assert_eq!(off.span("core.diff", NO_PARENT, off.now(), off.now()), 0);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut out = Vec::new();
        write_jsonl(
            &[span("root", NO_PARENT, 0, 9), span("a", 0, 1, 2)],
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for l in lines {
            let v = crate::json::Json::parse(l).unwrap();
            assert!(v.get("name").is_some() && v.get("call_id").is_some());
        }
    }
}
