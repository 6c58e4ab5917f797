//! The "heavily-used server" scenario (paper §3.4).
//!
//! "Google and Amazon.com provide a Web services interface. The XML
//! Schema used for the responses to user requests is always the same
//! (for a particular operation); only the values stored in the XML Schema
//! instance change … The optimizations in bSOAP for perfect structural
//! match could significantly reduce the time spent serializing response
//! messages from the heavily-used servers."
//!
//! A query service returns a fixed-schema page of results (ids + scores).
//! Many clients issue queries; because consecutive responses share the
//! schema — and often most of their content — the server's differential
//! response path turns full serializations into patches.
//!
//! Run with: `cargo run --release --example query_service`

use bsoap::convert::ScalarKind;
use bsoap::server::{HttpServer, Service};
use bsoap::transport::http::{HttpVersion, RequestConfig};
use bsoap::transport::ClientConn;
use bsoap::{EngineConfig, MessageTemplate, OpDesc, ParamDesc, TypeDesc, Value, WidthPolicy};
use std::io::IoSlice;

const PAGE: usize = 25;
const CLIENTS: usize = 6;
const QUERIES_PER_CLIENT: usize = 30;

fn main() {
    // --- the service: query(term: string) -> (ids: int[], scores: double[]) ---
    let request_op = OpDesc::single(
        "query",
        "urn:search",
        "term",
        TypeDesc::Scalar(ScalarKind::Str),
    );
    let response_params = vec![
        ParamDesc {
            name: "ids".into(),
            desc: TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Int)),
        },
        ParamDesc {
            name: "scores".into(),
            desc: TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
        },
    ];
    // Stuffed numeric fields: score changes never shift the response
    // template, keeping the perfect-structural path hot.
    let config = EngineConfig::paper_default().with_width(WidthPolicy::Max);
    let mut svc = Service::new("urn:search", config);
    svc.register(request_op.clone(), response_params, move |args| {
        let Value::Str(term) = &args[0] else {
            return Err("expected string".into());
        };
        // Deterministic "index": results depend weakly on the query, so
        // popular repeated queries produce identical pages and slightly
        // different queries overlap heavily.
        let h = term
            .bytes()
            .fold(0u64, |a, b| a.wrapping_mul(31).wrapping_add(b as u64));
        let ids: Vec<i32> = (0..PAGE)
            .map(|i| ((h as i32) & 0xFFFF) + i as i32)
            .collect();
        let scores: Vec<f64> = (0..PAGE)
            .map(|i| 1.0 - (i as f64) * 0.01 - ((h % 7) as f64) * 0.001)
            .collect();
        Ok(vec![Value::IntArray(ids), Value::DoubleArray(scores)])
    });

    let server = HttpServer::spawn(svc).expect("bind loopback");
    println!("query service on {}", server.addr());

    // --- clients: a few hot queries, a tail of variants ---
    let addr = server.addr();
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                let cfg = RequestConfig {
                    path: "/search".into(),
                    host: "localhost".into(),
                    soap_action: "urn:search#query".into(),
                    version: HttpVersion::Http11Length,
                    extra_headers: Vec::new(),
                };
                let mut conn = ClientConn::connect(addr, None).expect("connect");
                let client_config = EngineConfig::paper_default();
                for q in 0..QUERIES_PER_CLIENT {
                    // 70% hot query, 30% variants.
                    let term = if q % 10 < 7 {
                        "grid computing".to_owned()
                    } else {
                        format!("grid computing {}", (c + q) % 4)
                    };
                    let body = MessageTemplate::build(
                        client_config,
                        &OpDesc::single(
                            "query",
                            "urn:search",
                            "term",
                            TypeDesc::Scalar(ScalarKind::Str),
                        ),
                        &[Value::Str(term)],
                    )
                    .expect("request build")
                    .to_bytes();
                    conn.post(&cfg, &[IoSlice::new(&body)]).expect("post");
                    let (status, _, _) = conn.read_reply(usize::MAX, usize::MAX).expect("response");
                    assert_eq!(status, 200);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }

    let stats = server.stop();
    let total = stats.requests;
    println!("\n{total} queries served across {CLIENTS} clients");
    println!(
        "request parsing:   full={:<4} differential={:<4} identical={:<4}",
        stats.requests_full_parse, stats.requests_differential, stats.requests_identical
    );
    println!(
        "response serialization: first={:<4} content={:<4} perfect={:<4} partial={:<4}",
        stats.responses_first,
        stats.responses_content,
        stats.responses_perfect,
        stats.responses_partial
    );
    let patched = stats.responses_content + stats.responses_perfect;
    println!(
        "\n{:.0}% of responses avoided full serialization — the §3.4 claim for\n\
         heavily-used servers, realized by one shared response template.",
        100.0 * patched as f64 / total as f64
    );
}
