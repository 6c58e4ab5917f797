//! The rule table: what product source may and may not say, one row per
//! rule. The source-walk tests (`one_send_body`, `lane_contract`,
//! `one_client_connection`, `config_is_a_value`) each [`enforce`] their
//! rows; a deletion that must stay deleted, or a decision that must keep
//! one home, is one more row here.

use std::ops::RangeInclusive;

/// Which product files a row looks at (paths match by suffix).
enum Files {
    All,
    Only(&'static str),
    Except(&'static [&'static str]),
    /// Every file below a directory (matched as a path fragment).
    Under(&'static str),
}

/// Which part of those files: all of it, or what precedes the test module.
enum Part {
    Whole,
    Product,
}

struct Rule {
    needle: &'static str,
    files: Files,
    part: Part,
    /// How often `needle` may occur, summed over the files.
    times: RangeInclusive<usize>,
}

const NEVER: RangeInclusive<usize> = 0..=0;
const SOMEWHERE: RangeInclusive<usize> = 1..=usize::MAX;

const fn rule(
    needle: &'static str,
    files: Files,
    part: Part,
    times: RangeInclusive<usize>,
) -> Rule {
    Rule {
        needle,
        files,
        part,
        times,
    }
}

/// `needle` is gone from product code, test modules included.
const fn gone(needle: &'static str) -> Rule {
    rule(needle, Files::All, Part::Whole, NEVER)
}

/// The non-test part of no file but `homes` says `needle`.
const fn outside(homes: &'static [&'static str], needle: &'static str) -> Rule {
    rule(needle, Files::Except(homes), Part::Product, NEVER)
}

/// The non-test part of `file` says `needle` this often.
const fn inside(file: &'static str, needle: &'static str, times: RangeInclusive<usize>) -> Rule {
    rule(needle, Files::Only(file), Part::Product, times)
}

const SEND: &str = "crates/core/src/send.rs";
const STORE: &str = "crates/core/src/store.rs";
const CORE_LANE: &str = "crates/core/src/lane.rs";
const BUILD: &str = "crates/core/src/template/build.rs";
const OVERLAY: &str = "crates/core/src/overlay.rs";
const DESER_LANE: &str = "crates/deser/src/lane.rs";
const CLIENT: &str = "crates/transport/src/client.rs";
const HTTP: &str = "crates/transport/src/http.rs";
const ENGINE_CLIENT: &str = "crates/core/src/client.rs";
const POLLER: &str = "crates/transport/src/poller.rs";
/// `transport`'s connection pool has a `checkout()` of its own: sockets,
/// not templates.
const SEND_BODY: &[&str] = &[SEND, STORE, "crates/transport/src/pool.rs"];
const LANES: &[&str] = &[CORE_LANE, DESER_LANE];
const EXCHANGE: &[&str] = &[HTTP, CLIENT];

/// Suite name, then its rows.
const RULES: &[(&str, &[Rule])] = &[
    // One tiered send (PR 20): the deleted bodies stay deleted; templates
    // leave and re-enter the store in `send.rs`, through one entry point;
    // a send tier is counted in one place.
    (
        "one_send_body",
        &[
            gone("lease_front"),
            gone("fn prepare("),
            gone("fn call_tiered"),
            gone("fn full_send"),
            gone("fn diff_and_send"),
            outside(SEND_BODY, ".checkout("),
            outside(SEND_BODY, ".admit("),
            inside(STORE, ".checkout(", NEVER),
            inside(STORE, ".admit(", NEVER),
            inside(SEND, ".checkout(", 1..=1),
            inside(SEND, ".admit(", 1..=2),
            inside(SEND, "pub fn ", 1..=1),
            outside(&[SEND], "add(Counter::send("),
            inside(SEND, "add(Counter::send(", 1..=1),
            // One way in to the diff (PR 23): the per-array step skipped
            // `check_args`, so it is `update_args`'s private helper now.
            gone("pub fn update_array("),
            // One store lock and one atomic a counter: the shards were
            // sized for a worker pool that is gone. Sharding comes back
            // only with a row that measures contention on the lock.
            inside(STORE, "Mutex<", 1..=1),
            inside(STORE, "Atomic", NEVER),
            gone("SHARDS"),
            gone("ShardedCounter"),
            gone("pub mod cache"),
        ],
    ),
    // A wire lane is one module per crate (PR 17). One variant's name
    // stands for "code that knows which lane it is on"; the other three
    // are the per-lane twins that layout replaced.
    (
        "lane_contract",
        &[
            outside(LANES, "CompactBinary"),
            outside(LANES, "deser_bin"),
            outside(LANES, "is_binary("),
            outside(LANES, "build_binary"),
            inside(CORE_LANE, "CompactBinary", SOMEWHERE),
            inside(DESER_LANE, "CompactBinary", SOMEWHERE),
            // Framing is compiled once per build (PR 24): the builder asks
            // the lane for tags at the frame plan's three call sites (scalar,
            // struct, array) and nowhere in the per-element walk.
            inside(BUILD, "_tags(", 3..=3),
            // Ask the schema once (PR 25): `check_args` is the only value
            // check, made at the three entries — a build, a diff
            // (`update_args`) and an overlaid send — and the walks below
            // trust what it returns. The overlay is framed by the frame
            // plan (no tag of its own) and diffed by the one diff walk.
            rule(
                ".check_args(",
                Files::Under("crates/core/src/"),
                Part::Product,
                3..=3,
            ),
            gone("fn validate_elements"),
            gone("fn diff_value_leaves"),
            gone("fn update_fragment"),
            inside(OVERLAY, "soap::", NEVER),
        ],
    ),
    // One client connection (PR 19): `http.rs` defines the POST writer and
    // the one-shot reply readers, `client.rs` wraps them, tests and
    // `benchmark/` may call them — no other product code assembles an
    // exchange by hand. No reply reader without a bound is left (PR 21).
    (
        "one_client_connection",
        &[
            gone("TcpTransport"),
            gone("trait Transport"),
            gone("fn post_gather("),
            gone("fn read_response("),
            outside(EXCHANGE, "post_gather_vectored("),
            outside(EXCHANGE, "read_response_limited("),
            outside(EXCHANGE, "read_response_headers_limited("),
            inside(CLIENT, "post_gather_vectored(", SOMEWHERE),
            inside(CLIENT, "pub struct ClientConn", 1..=1),
            // One head parser for requests and replies: one header
            // line split, names compared in place (the one lower-casing is
            // the owned-pairs shim's), numbers rendered without `format!`,
            // one reply reader.
            inside(HTTP, "split_once(':')", 1..=1),
            rule(
                "to_ascii_lowercase",
                Files::Under("crates/transport/src/"),
                Part::Product,
                0..=1,
            ),
            inside(HTTP, "format!(", NEVER),
            inside(HTTP, "fn read_reply", 0..=1),
            // One home per client-side decision (PR 22): the lane is an
            // argument (`Client::call_on`), held by `RpcClient`'s
            // negotiator alone; the store is always there; template keys
            // are built where a call site is first seen, nowhere per call.
            gone("endpoint_formats"),
            gone("fn sync_endpoint_format"),
            gone("fn store_handle"),
            gone("struct XmlWriter"),
            inside(ENGINE_CLIENT, "TemplateKey::for_format(", 1..=2),
        ],
    ),
    // Configuration is a value: no environment reader in product
    // code, test modules included. The last one, `BSOAP_KERNEL=scalar`,
    // went with the SIMD byte kernels it chose between.
    (
        "config_is_a_value",
        &[
            gone("env::var"),
            gone("KernelPolicy"),
            gone("fn resolve_with"),
            gone("SimdKernelHits"),
            gone("fn open_gaps_right_with"),
            gone("fn pad_spaces_wide"),
            // One safe kernel per byte loop: the epoll shim is the only
            // product code that needs `unsafe`.
            outside(&[POLLER], "unsafe "),
            // Knobs no workload set (PR 25): the overlay window is one
            // chunk, the streaming threshold a constant.
            gone("pub window_elems:"),
            gone("fn with_window_elems"),
            gone("fn with_overlay_threshold"),
        ],
    ),
];

/// Check every row of `suite` against the product sources.
pub fn enforce(suite: &str) {
    let sources = super::product_sources();
    let (_, rows) = RULES.iter().find(|(name, _)| *name == suite).unwrap();
    let mut broken = Vec::new();
    for rule in rows.iter() {
        let in_scope = |path: &str| match rule.files {
            Files::All => true,
            Files::Only(file) => path.ends_with(file),
            Files::Except(files) => !files.iter().any(|f| path.ends_with(f)),
            Files::Under(dir) => path.contains(dir),
        };
        let hits: Vec<(&str, usize)> = sources
            .iter()
            .filter(|(path, _)| in_scope(path))
            .map(|(path, text)| {
                let text = match rule.part {
                    Part::Whole => text.as_str(),
                    Part::Product => {
                        let tests = ["#[cfg(test)]", "#[cfg(all(test"];
                        let cut = tests.iter().filter_map(|t| text.find(t)).min();
                        &text[..cut.unwrap_or(text.len())]
                    }
                };
                (path.as_str(), text.matches(rule.needle).count())
            })
            .collect();
        assert!(!hits.is_empty(), "`{}`: no file in scope", rule.needle);
        let total: usize = hits.iter().map(|(_, n)| n).sum();
        if !rule.times.contains(&total) {
            let at: Vec<_> = hits.iter().filter(|(_, n)| *n > 0).collect();
            broken.push(format!(
                "`{}` occurs {total}x, allowed {:?}: {at:?}",
                rule.needle, rule.times
            ));
        }
    }
    assert!(broken.is_empty(), "{suite}: {broken:#?}");
}
