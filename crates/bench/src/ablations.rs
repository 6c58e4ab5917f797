//! Design-space ablations beyond the paper's figures.
//!
//! Section 3.2 lists the knobs ("configurable parameters determine the
//! default initial chunk size, the threshold at which chunks are split,
//! and the space that is initially left empty at the end of a chunk")
//! and the alternatives (stealing vs shifting, stuffed widths vs wire
//! size); §6 proposes differential deserialization. Each function here
//! isolates one of those choices.

use crate::scenarios::{touch_percent, Table};
use crate::timing::{measure, measure_batched};
use crate::workload::{pinned, values, Kind, WidthClass};
use bsoap_chunks::ChunkConfig;
use bsoap_core::{EngineConfig, GrowthPolicy, MessageTemplate, WidthPolicy};
use bsoap_deser::{parse_envelope, DiffDeserializer};
use bsoap_transport::SinkTransport;

const WARMUP: usize = 2;

/// Chunk-size sweep under worst-case shifting (§3.2: "selecting the
/// appropriate chunk size to reduce the cost of shifting").
pub fn ablation_chunk_size(kind: Kind, sizes: &[usize], reps: usize) -> Table {
    let op = kind.op();
    let chunk_sizes: &[(usize, &str)] = &[
        (2 * 1024, "2K chunks"),
        (8 * 1024, "8K chunks"),
        (32 * 1024, "32K chunks"),
        (128 * 1024, "128K chunks"),
    ];
    let mut rows = Vec::new();
    for &n in sizes {
        let min_args = vec![pinned(kind, n, WidthClass::Min)];
        let max_args = vec![pinned(kind, n, WidthClass::Max)];
        let mut cells = Vec::new();
        for &(cs, _) in chunk_sizes {
            let chunk = ChunkConfig {
                initial_size: cs,
                split_threshold: cs * 2,
                reserve: cs / 16,
            };
            let config = EngineConfig::paper_default().with_chunk(chunk);
            let mut sink = SinkTransport::new();
            let t = measure_batched(
                WARMUP,
                reps,
                || MessageTemplate::build(config, &op, &min_args).unwrap(),
                |mut tpl| {
                    tpl.update_args(&max_args).unwrap();
                    tpl.send(&mut sink).unwrap();
                },
            );
            cells.push(t.mean_ms());
        }
        rows.push((n, cells));
    }
    Table {
        id: "Ablation: chunk size".to_owned(),
        title: format!("Worst-case shifting vs chunk size: {}", kind.name()),
        series: chunk_sizes.iter().map(|&(_, l)| l.to_owned()).collect(),
        rows,
    }
}

/// Stealing on/off under moderate growth (§3.2 / the "dynamic resizing"
/// companion paper).
///
/// Fields start stuffed to the intermediate width holding minimum-width
/// values (17 characters of pad each); every *even* element then grows to
/// the maximum width, needing 6 characters more than its field. Its odd
/// right neighbor never grows, so its pad is always available — the exact
/// case stealing is built for (a handful of tag bytes move instead of the
/// whole chunk tail).
pub fn ablation_stealing(sizes: &[usize], reps: usize) -> Table {
    use bsoap_core::Value;
    let kind = Kind::Doubles;
    let op = kind.op();
    let mut rows = Vec::new();
    for &n in sizes {
        let min_args = vec![pinned(kind, n, WidthClass::Min)];
        let grown = {
            let Value::DoubleArray(v) = &min_args[0] else {
                unreachable!()
            };
            let mut v = v.clone();
            for x in v.iter_mut().step_by(2) {
                *x = crate::workload::DOUBLE_MAX_W;
            }
            vec![Value::DoubleArray(v)]
        };
        let mut cells = Vec::new();
        for steal in [true, false] {
            let config = EngineConfig::paper_default()
                .with_width(WidthPolicy::Fixed {
                    double: 18,
                    int: 9,
                    long: 20,
                })
                .with_steal(steal);
            let mut sink = SinkTransport::new();
            let mut steals_seen = 0usize;
            let mut shifts_seen = 0usize;
            let t = measure_batched(
                WARMUP,
                reps,
                || MessageTemplate::build(config, &op, &min_args).unwrap(),
                |mut tpl| {
                    tpl.update_args(&grown).unwrap();
                    let report = tpl.flush();
                    steals_seen += report.steals;
                    shifts_seen += report.shifts;
                    tpl.send(&mut sink).unwrap();
                },
            );
            // The scenario must exercise what it claims to.
            if n >= 2 {
                if steal {
                    assert!(steals_seen > 0, "steal config produced no steals");
                } else {
                    assert!(shifts_seen > 0, "no-steal config produced no shifts");
                }
            }
            cells.push(t.mean_ms());
        }
        rows.push((n, cells));
    }
    Table {
        id: "Ablation: stealing".to_owned(),
        title: "Alternating growth: stealing enabled vs shifting only (doubles)".to_owned(),
        series: vec!["steal enabled".to_owned(), "shift only".to_owned()],
        rows,
    }
}

/// Trailing-reserve sweep (§3.2: "the space that is initially left empty
/// at the end of a chunk (to allow for shifting without reallocation)").
pub fn ablation_reserve(sizes: &[usize], reps: usize) -> Table {
    let kind = Kind::Doubles;
    let op = kind.op();
    let reserves: &[(usize, &str)] = &[
        (0, "reserve 0"),
        (512, "reserve 512"),
        (4096, "reserve 4K"),
        (16384, "reserve 16K"),
    ];
    let mut rows = Vec::new();
    for &n in sizes {
        let mid_args = vec![pinned(kind, n, WidthClass::Mid)];
        let max_args = vec![pinned(kind, n, WidthClass::Max)];
        let mut cells = Vec::new();
        for &(reserve, _) in reserves {
            let chunk = ChunkConfig {
                initial_size: 32 * 1024,
                split_threshold: 64 * 1024,
                reserve,
            };
            let config = EngineConfig::paper_default().with_chunk(chunk);
            let mut sink = SinkTransport::new();
            let t = measure_batched(
                WARMUP,
                reps,
                || MessageTemplate::build(config, &op, &mid_args).unwrap(),
                |mut tpl| {
                    tpl.update_args(&max_args).unwrap();
                    tpl.send(&mut sink).unwrap();
                },
            );
            cells.push(t.mean_ms());
        }
        rows.push((n, cells));
    }
    Table {
        id: "Ablation: reserve".to_owned(),
        title: "Full growth vs trailing chunk reserve (doubles, 32K chunks)".to_owned(),
        series: reserves.iter().map(|&(_, l)| l.to_owned()).collect(),
        rows,
    }
}

/// Post-shift growth policy: grow to exact size vs straight to maximum
/// width (never shift the same field twice).
pub fn ablation_growth_policy(sizes: &[usize], reps: usize) -> Table {
    let kind = Kind::Doubles;
    let op = kind.op();
    let mut rows = Vec::new();
    for &n in sizes {
        let min_args = vec![pinned(kind, n, WidthClass::Min)];
        let mid_args = vec![pinned(kind, n, WidthClass::Mid)];
        let max_args = vec![pinned(kind, n, WidthClass::Max)];
        let mut cells = Vec::new();
        for growth in [GrowthPolicy::Exact, GrowthPolicy::ToMax] {
            let config = EngineConfig::paper_default().with_growth(growth);
            let mut sink = SinkTransport::new();
            // Two-step growth: min → mid (shifts), then mid → max. Under
            // ToMax the first shift already widened to 24 chars, so the
            // second step never shifts.
            let t = measure_batched(
                WARMUP,
                reps,
                || MessageTemplate::build(config, &op, &min_args).unwrap(),
                |mut tpl| {
                    tpl.update_args(&mid_args).unwrap();
                    tpl.flush();
                    tpl.update_args(&max_args).unwrap();
                    tpl.send(&mut sink).unwrap();
                },
            );
            cells.push(t.mean_ms());
        }
        rows.push((n, cells));
    }
    Table {
        id: "Ablation: growth policy".to_owned(),
        title: "Two-step growth: exact regrow vs grow-to-max (doubles)".to_owned(),
        series: vec!["grow exact".to_owned(), "grow to max".to_owned()],
        rows,
    }
}

/// Differential deserialization (§6): server-side cost of full parsing vs
/// the skeleton-compare + leaf-reparse path, at 1% and 100% changed
/// leaves.
pub fn ablation_diff_deser(sizes: &[usize], reps: usize) -> Table {
    let kind = Kind::Doubles;
    let op = kind.op();
    // Stuffed widths keep messages byte-stable under value changes so the
    // differential path stays live (the §6 interplay with stuffing).
    let config = EngineConfig::paper_default().with_width(WidthPolicy::Max);
    let mut rows = Vec::new();
    for &n in sizes {
        let args = vec![values(kind, n)];
        let mut tpl = MessageTemplate::build(config, &op, &args).unwrap();
        let base = tpl.to_bytes();
        // Variant messages: 1% and 100% of leaves changed.
        let variant = |percent: usize| -> Vec<u8> {
            let mut t = MessageTemplate::build(config, &op, &args).unwrap();
            touch_percent(&mut t, kind, percent);
            // touch keeps values identical; actually change them.
            for e in 0..(n * percent / 100).max(usize::from(percent > 0 && n > 0)) {
                let leaf = t.array_leaf(0, e, 0);
                t.set_double(leaf, 0.123456789 + e as f64).unwrap();
            }
            t.flush();
            t.to_bytes()
        };
        let msg_1 = variant(1);
        let msg_100 = variant(100);

        let mut cells = Vec::new();
        {
            // Full parse of the 1%-changed message.
            let t = measure(WARMUP, reps, || {
                parse_envelope(&msg_1, &op).unwrap();
            });
            cells.push(t.mean_ms());
        }
        for msg in [&msg_1, &msg_100] {
            let mut d = DiffDeserializer::new(op.clone());
            d.deserialize(&base).unwrap();
            // Alternate so every iteration has changed leaf bytes.
            let mut flip = false;
            let t = measure(WARMUP, reps, || {
                let m = if flip { &base } else { msg };
                flip = !flip;
                d.deserialize(m).unwrap();
            });
            cells.push(t.mean_ms());
        }
        let _ = tpl.flush();
        rows.push((n, cells));
    }
    Table {
        id: "Ablation: differential deserialization (§6)".to_owned(),
        title: "Server-side parse cost (doubles, stuffed widths)".to_owned(),
        series: vec![
            "full parse".to_owned(),
            "differential, 1% changed".to_owned(),
            "differential, 100% changed".to_owned(),
        ],
        rows,
    }
}

/// HTTP framing overhead: raw bytes vs HTTP/1.1 content-length vs
/// HTTP/1.1 chunked, into the sink (framing cost only, no kernel).
pub fn ablation_http_framing(sizes: &[usize], reps: usize) -> Table {
    use bsoap_transport::http::{post_gather_vectored, HttpVersion, PostScratch, RequestConfig};
    let kind = Kind::Doubles;
    let op = kind.op();
    let config = EngineConfig::paper_default();
    let mut rows = Vec::new();
    for &n in sizes {
        let args = vec![values(kind, n)];
        let tpl = MessageTemplate::build(config, &op, &args).unwrap();
        let mut cells = Vec::new();
        {
            let mut sink = SinkTransport::new();
            let t = measure(WARMUP, reps, || {
                bsoap_transport::write_gather(&mut sink, &tpl.io_slices()).unwrap();
            });
            cells.push(t.mean_ms());
        }
        for version in [HttpVersion::Http11Length, HttpVersion::Http11Chunked] {
            let cfg = RequestConfig::loopback(version);
            let mut sink = SinkTransport::new();
            let mut scratch = PostScratch::default();
            let t = measure(WARMUP, reps, || {
                post_gather_vectored(&mut sink, &cfg, &tpl.io_slices(), &mut scratch).unwrap();
            });
            cells.push(t.mean_ms());
        }
        rows.push((n, cells));
    }
    Table {
        id: "Ablation: HTTP framing".to_owned(),
        title: "Send cost by framing (doubles, sink transport)".to_owned(),
        series: vec![
            "raw".to_owned(),
            "HTTP/1.1 content-length".to_owned(),
            "HTTP/1.1 chunked".to_owned(),
        ],
        rows,
    }
}

/// Server dispatch (§3 "a server sending identical (or similar)
/// responses"): requests/second through the full dispatch pipeline with
/// both differential engines, vs a naive host that full-parses every
/// request and full-serializes every response.
pub fn ablation_server_dispatch(sizes: &[usize], reps: usize) -> Table {
    use bsoap_baseline::GSoapLike;
    use bsoap_convert::ScalarKind;
    use bsoap_core::{OpDesc, ParamDesc, TypeDesc, Value};
    use bsoap_server::Service;

    let op = || {
        OpDesc::single(
            "lookup",
            "urn:bench",
            "key",
            TypeDesc::Scalar(ScalarKind::Int),
        )
    };
    let response_params = || {
        vec![ParamDesc {
            name: "page".into(),
            desc: TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
        }]
    };
    // `sizes` is the response page size; a stream of queries cycles
    // through 4 hot keys, so responses repeat (the heavily-used-server
    // pattern).
    let mut rows = Vec::new();
    for &n in sizes {
        let handler = move |args: &[Value]| -> Result<Vec<Value>, String> {
            let Value::Int(k) = args[0] else {
                return Err("type".into());
            };
            // Result pages share almost all content across queries (the
            // §3.4 observation: "only the values stored in the XML Schema
            // instance change" — and between popular queries, few do):
            // only every 64th entry depends on the key.
            Ok(vec![Value::DoubleArray(
                (0..n)
                    .map(|i| {
                        if i % 64 == 0 {
                            (k % 4) as f64 + i as f64 * 0.5
                        } else {
                            i as f64 * 0.5
                        }
                    })
                    .collect(),
            )])
        };
        // Pre-serialized request stream (4 hot keys, repeated).
        let requests: Vec<Vec<u8>> = (0..8)
            .map(|k| {
                MessageTemplate::build(EngineConfig::paper_default(), &op(), &[Value::Int(k % 4)])
                    .unwrap()
                    .to_bytes()
            })
            .collect();

        let mut cells = Vec::new();
        {
            // Differential host.
            let mut svc = Service::new("urn:bench", EngineConfig::paper_default());
            svc.register(op(), response_params(), handler);
            let mut i = 0usize;
            let t = measure(WARMUP, reps, || {
                for _ in 0..requests.len() {
                    svc.dispatch("lookup", &requests[i % requests.len()])
                        .unwrap();
                    i += 1;
                }
            });
            cells.push(t.mean_ms());
        }
        {
            // Naive host: full parse + full response serialization.
            let req_op = op();
            let resp_op = OpDesc::new("lookupResponse", "urn:bench", response_params());
            let mut g = GSoapLike::new();
            let mut i = 0usize;
            let t = measure(WARMUP, reps, || {
                for _ in 0..requests.len() {
                    let args = parse_envelope(&requests[i % requests.len()], &req_op).unwrap();
                    let result = handler(&args).unwrap();
                    let bytes = g.serialize(&resp_op, &result).unwrap();
                    std::hint::black_box(bytes.len());
                    i += 1;
                }
            });
            cells.push(t.mean_ms());
        }
        rows.push((n, cells));
    }
    Table {
        id: "Ablation: server dispatch".to_owned(),
        title: "8 queries over 4 hot keys: differential host vs naive host (page of n doubles)"
            .to_owned(),
        series: vec!["differential host".to_owned(), "naive host".to_owned()],
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: &[usize] = &[64];

    #[test]
    fn all_ablations_produce_tables() {
        let tables = [
            ablation_chunk_size(Kind::Doubles, TINY, 2),
            ablation_stealing(TINY, 2),
            ablation_reserve(TINY, 2),
            ablation_growth_policy(TINY, 2),
            ablation_diff_deser(TINY, 2),
            ablation_server_dispatch(TINY, 2),
            ablation_http_framing(TINY, 2),
        ];
        for t in &tables {
            assert_eq!(t.rows.len(), TINY.len(), "{}", t.id);
            for (_, cells) in &t.rows {
                assert_eq!(cells.len(), t.series.len(), "{}", t.id);
                assert!(cells.iter().all(|c| c.is_finite() && *c >= 0.0), "{}", t.id);
            }
        }
    }

    #[test]
    fn diff_deser_one_percent_beats_full_parse_at_scale() {
        let t = ablation_diff_deser(&[10_000], 3);
        let row = &t.rows[0].1;
        assert!(
            row[1] * 2.0 < row[0],
            "1%-changed differential ({}) should be ≥2x faster than full parse ({})",
            row[1],
            row[0]
        );
    }
}
