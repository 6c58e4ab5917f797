//! Metadata Catalog Service scenario (paper §3.4), end to end over HTTP.
//!
//! "A general metadata schema is used to specify all the attributes
//! associated with each file. … Since each request sent by a user conforms
//! to the metadata schema, the format of the SOAP payload is the same for
//! each request. bSOAP perfect structural match can therefore be used to
//! improve the performance of MCS."
//!
//! The client registers a stream of file records against a fixed metadata
//! schema, POSTing each request over HTTP/1.1 to a collecting server. The
//! server runs **differential deserialization** (paper §6): identical
//! skeletons let it re-parse only the attribute values that changed.
//!
//! Run with: `cargo run --release --example metadata_catalog`

use bsoap::convert::ScalarKind;
use bsoap::deser::{DiffDeserializer, DiffOutcome};
use bsoap::transport::http::{HttpVersion, RequestConfig};
use bsoap::transport::{ClientConn, ServerMode, TestServer};
use bsoap::{OpDesc, ParamDesc, TypeDesc, Value, WidthPolicy};

fn mcs_op() -> OpDesc {
    // addMetadata(logicalName, sizeBytes, checksum, createdUnix, replicas)
    OpDesc::new(
        "addMetadata",
        "urn:mcs",
        vec![
            ParamDesc {
                name: "logicalName".into(),
                desc: TypeDesc::Scalar(ScalarKind::Str),
            },
            ParamDesc {
                name: "sizeBytes".into(),
                desc: TypeDesc::Scalar(ScalarKind::Long),
            },
            ParamDesc {
                name: "checksum".into(),
                desc: TypeDesc::Scalar(ScalarKind::Long),
            },
            ParamDesc {
                name: "createdUnix".into(),
                desc: TypeDesc::Scalar(ScalarKind::Long),
            },
            ParamDesc {
                name: "replicas".into(),
                desc: TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Int)),
            },
        ],
    )
}

fn main() {
    let op = mcs_op();
    let server = TestServer::spawn(ServerMode::Collect).expect("bind loopback");
    println!("MCS front-end on {}", server.addr());

    let cfg = RequestConfig {
        path: "/mcs".into(),
        host: "localhost".into(),
        soap_action: "urn:mcs#addMetadata".into(),
        version: HttpVersion::Http11Length,
        extra_headers: Vec::new(),
    };
    let mut conn = ClientConn::connect(server.addr(), None).expect("connect");

    // Stuff numeric fields to full width so every request is a perfect
    // structural match (names are kept fixed-length for the same reason —
    // the schema "specifies all the attributes", including their shape).
    let config = bsoap::EngineConfig::paper_default().with_width(WidthPolicy::Max);
    let mut client = bsoap::Client::new(config);

    const REQUESTS: usize = 200;
    for i in 0..REQUESTS {
        let args = vec![
            Value::Str(format!("lfn://climate/run42/chunk-{i:06}.nc")),
            Value::Long(1 << 28 | i as i64),
            Value::Long(0x00C0FFEE ^ (i as i64 * 2_654_435_761)),
            Value::Long(1_088_640_000 + i as i64 * 3600),
            Value::IntArray(vec![(i % 7) as i32, ((i * 3) % 11) as i32, 2]),
        ];
        client
            .call_via("http://mcs/svc", &op, &args, |slices| {
                conn.post(&cfg, slices)
            })
            .unwrap();
        // Each POST gets a 200 ack; read it before the next request.
        let (status, _, _) = conn.read_reply(usize::MAX, usize::MAX).unwrap();
        assert_eq!(status, 200);
    }
    let client_stats = client.stats();
    drop(conn);

    // --- server side: replay the collected bodies through the
    //     differential deserializer ---
    let requests = server.stop_collecting();
    assert_eq!(requests.len(), REQUESTS);
    let mut deser = DiffDeserializer::new(op);
    let mut identical = 0usize;
    let mut differential = 0usize;
    let mut full = 0usize;
    for req in &requests {
        let (_args, outcome) = deser.deserialize(&req.body).unwrap();
        match outcome {
            DiffOutcome::Identical => identical += 1,
            DiffOutcome::Differential { .. } => differential += 1,
            DiffOutcome::FullParse => full += 1,
        }
    }
    let s = deser.stats();

    println!(
        "\nclient: {} requests — tiers: first={} content={} perfect={} partial={}",
        client_stats.calls(),
        client_stats.first_time,
        client_stats.content_match,
        client_stats.perfect_structural,
        client_stats.partial_structural
    );
    println!("server: full parses={full} differential={differential} identical={identical}");
    println!(
        "        leaves re-parsed {} / skipped {} ({:.1}% skipped)",
        s.leaves_reparsed,
        s.leaves_skipped,
        100.0 * s.leaves_skipped as f64 / (s.leaves_reparsed + s.leaves_skipped).max(1) as f64
    );
    println!(
        "        reference retained: {} bytes (message, region map, values, leaf table)",
        deser.retained_bytes()
    );
}
