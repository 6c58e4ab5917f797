//! Shared by the source-walking tests (`config_is_a_value`,
//! `lane_contract`): what counts as product code.

use std::path::Path;

fn rust_files(dir: &Path, out: &mut Vec<(String, String)>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).unwrap();
            out.push((path.display().to_string(), text));
        }
    }
}

/// Every `.rs` file under `src` and `crates/*/src`, as `(path, text)`.
/// `crates/bench` is left out: its bins are drivers, not product code.
pub fn product_sources() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut sources = Vec::new();
    rust_files(&root.join("src"), &mut sources);
    for krate in std::fs::read_dir(root.join("crates")).unwrap() {
        let krate = krate.unwrap().path();
        if krate.file_name().is_some_and(|n| n != "bench") {
            rust_files(&krate.join("src"), &mut sources);
        }
    }
    assert!(sources.len() > 50, "walked {} files", sources.len());
    sources
}
