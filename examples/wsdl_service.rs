//! Driving the stack from a WSDL service description.
//!
//! "WSDL provides a precise description of a Web Service interface and of
//! the communication protocols it supports" (paper §1). This example
//! publishes a service description, then configures *both* sides from it:
//! the client builds its operations, SOAPAction headers, and endpoint
//! from the parsed WSDL; the server parses incoming envelopes against the
//! same description.
//!
//! Run with: `cargo run --release --example wsdl_service`

use bsoap::convert::ScalarKind;
use bsoap::deser::DiffDeserializer;
use bsoap::transport::http::{HttpVersion, RequestConfig};
use bsoap::transport::{ClientConn, ServerMode, TestServer};
use bsoap::wsdl::{parse_wsdl, write_wsdl, ServiceDesc};
use bsoap::{Client, OpDesc, TypeDesc, Value};

fn main() {
    // --- 1. The service owner publishes a WSDL ---
    let published = ServiceDesc {
        name: "Telemetry".into(),
        namespace: "urn:telemetry".into(),
        endpoint: "http://replaced.at.runtime/telemetry".into(),
        operations: vec![OpDesc::single(
            "pushSamples",
            "urn:telemetry",
            "samples",
            TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
        )],
    };
    let wsdl_xml = write_wsdl(&published);
    println!("published WSDL ({} bytes):\n", wsdl_xml.len());
    for line in wsdl_xml.lines().take(8) {
        println!("  {line}");
    }
    println!("  …\n");

    // --- 2. The client configures itself from the WSDL ---
    let svc = parse_wsdl(wsdl_xml.as_bytes()).expect("well-formed WSDL");
    let op = svc
        .operation("pushSamples")
        .expect("described operation")
        .clone();

    let server = TestServer::spawn(ServerMode::Collect).expect("bind");
    let cfg = RequestConfig {
        path: "/telemetry".into(),
        host: "localhost".into(),
        soap_action: svc.soap_action("pushSamples"),
        version: HttpVersion::Http11Length,
        extra_headers: Vec::new(),
    };
    let mut conn = ClientConn::connect(server.addr(), None).expect("connect");
    let mut client = Client::with_defaults();

    let mut samples: Vec<f64> = (0..256).map(|i| (i as f64 * 0.1).sin()).collect();
    for round in 0..20 {
        samples[round * 12 % 256] += 0.5;
        client
            .call_via(
                &svc.endpoint,
                &op,
                &[Value::DoubleArray(samples.clone())],
                |s| conn.post(&cfg, s),
            )
            .unwrap();
        let (status, _, _) = conn.read_reply(usize::MAX, usize::MAX).unwrap();
        assert_eq!(status, 200);
    }
    drop(conn);

    // --- 3. The server parses against the same description ---
    let requests = server.stop_collecting();
    let mut deser = DiffDeserializer::new(op);
    for req in &requests {
        assert_eq!(
            req.head.header("soapaction").map(|s| s.trim_matches('"')),
            Some(svc.soap_action("pushSamples").as_str()),
            "SOAPAction from the WSDL rode every request"
        );
        deser.deserialize(&req.body).unwrap();
    }

    let cs = client.stats();
    let ds = deser.stats();
    println!(
        "client tiers: first={} content={} perfect={} partial={}",
        cs.first_time, cs.content_match, cs.perfect_structural, cs.partial_structural
    );
    println!(
        "server paths: full={} differential={} identical={} (leaves skipped: {})",
        ds.full_parses, ds.differential, ds.identical, ds.leaves_skipped
    );
    println!("\nboth sides agreed on the interface without sharing a line of code —");
    println!("only the {}-byte WSDL document.", wsdl_xml.len());
}
