//! PDE mesh-coupling scenario (paper §4.1): MIO arrays over real TCP.
//!
//! "An MIO is a structure of the form [int, int, double], where the first
//! two fields represent mesh coordinates, and the third represents a field
//! value. MIO's can be used, for example, for communication between two
//! partial differential equation (PDE) solvers on different domains."
//!
//! A 1-D heat-diffusion stencil runs on a strip of cells; after every step
//! the strip ships its mesh interface to the coupled solver through a
//! loopback TCP connection to the paper's dummy (discarding) server. Mesh
//! coordinates never change; only a subset of field values move each step,
//! so every send after the first is a perfect structural match with a
//! partial dirty set.
//!
//! Run with: `cargo run --release --example mesh_exchange`

use bsoap::transport::{ServerMode, TestServer};
use bsoap::{mio, Client, OpDesc, TypeDesc, Value};
use std::net::TcpStream;
use std::time::Instant;

const CELLS: usize = 5_000;
const STEPS: usize = 40;

fn main() {
    let server = TestServer::spawn(ServerMode::Discard).expect("bind loopback");
    println!("dummy server on {}", server.addr());
    // Raw framing, as the paper measures it: message bytes back to back
    // on a `TCP_NODELAY` socket.
    let mut transport = TcpStream::connect(server.addr()).expect("connect");
    transport.set_nodelay(true).expect("TCP_NODELAY");

    let op = OpDesc::single(
        "exchangeBoundary",
        "urn:mesh",
        "interface",
        TypeDesc::array_of(TypeDesc::mio()),
    );
    let mut client = Client::with_defaults();

    // Initial field: a hot spot in the middle of the strip.
    let mut field = vec![0.0f64; CELLS];
    field[CELLS / 2] = 1000.0;
    let as_mios = |f: &[f64]| {
        Value::Array(
            f.iter()
                .enumerate()
                .map(|(i, &v)| mio(i as i32, (i / 64) as i32, v))
                .collect(),
        )
    };

    let t_total = Instant::now();
    let mut report_last = None;
    for step in 0..STEPS {
        // Heat diffusion: values spread outward; far cells stay exactly 0.0
        // so their leaves stay clean (partial dirty sets).
        let prev = field.clone();
        for i in 1..CELLS - 1 {
            let v = prev[i] + 0.25 * (prev[i - 1] - 2.0 * prev[i] + prev[i + 1]);
            field[i] = if v.abs() < 1e-9 { 0.0 } else { v };
        }
        let r = client
            .call("tcp://mesh-peer", &op, &[as_mios(&field)], &mut transport)
            .unwrap();
        if step % 10 == 0 || step == STEPS - 1 {
            println!(
                "step {:>3}: tier {:<24} {:>6} of {} values rewritten",
                step,
                r.tier.name(),
                r.values_written,
                3 * CELLS
            );
        }
        report_last = Some(r);
    }
    let elapsed = t_total.elapsed();

    drop(transport);
    let server_stats = server.stop();
    let stats = client.stats();

    println!("\n{STEPS} exchanges of {CELLS} MIOs in {elapsed:.2?}");
    println!(
        "tiers: first={} content={} perfect={} partial={}",
        stats.first_time, stats.content_match, stats.perfect_structural, stats.partial_structural
    );
    println!(
        "bytes on the wire: {} (server drained {})",
        stats.bytes_sent, server_stats.bytes_received
    );
    assert_eq!(
        stats.bytes_sent, server_stats.bytes_received,
        "wire accounting must agree"
    );
    if let Some(r) = report_last {
        println!(
            "last message: {} bytes, {} values rewritten",
            r.bytes, r.values_written
        );
    }
}
