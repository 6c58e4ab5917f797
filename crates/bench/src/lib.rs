//! # bsoap-bench — the paper's evaluation, regenerated
//!
//! One scenario per figure of *Differential Serialization for Optimized
//! SOAP Performance* (HPDC 2004, §4), plus the §2 conversion-share
//! ablation:
//!
//! | Figure | Scenario |
//! |--------|----------|
//! | 1–3    | [`scenarios::fig_content_match`] — content matches vs gSOAP-like / XSOAP-like / full serialization |
//! | 4–5    | [`scenarios::fig_psm`] — perfect structural matches at 25/50/75/100% dirty |
//! | 6–7    | [`scenarios::fig_shift_worst`] — worst-case shifting, 8K vs 32K chunks |
//! | 8–9    | [`scenarios::fig_shift_partial`] — partial shifting from intermediate widths |
//! | 10–11  | [`scenarios::fig_stuffing`] — field-width stuffing and closing-tag shifts |
//! | 12     | [`scenarios::fig_overlay`] — chunk overlaying vs full re-serialization |
//! | §2     | [`scenarios::fig_ablation`] — conversion share of Send Time |
//!
//! `cargo run --release -p bsoap-bench --bin figures -- --all` prints
//! every table (mean Send Time in ms, the paper's unit) in seconds;
//! `--ablations` adds the design-space sweeps of [`ablations`].
//!
//! What one RPC costs end to end — throughput, latency, bytes, memory,
//! and every per-layer number — is measured by the pinned package in
//! `benchmark/` (`cargo run --release --manifest-path
//! benchmark/Cargo.toml -- --workload <name>`), not here; README
//! "Benchmarks" maps each retired bin to the workload and metric that
//! replaced it. What stays in this crate is what no workload isolates:
//! the paper-figure reproduction and the `simd_kernels` kernel
//! microbench (the conversion kernels are `convert.ns_per_value` there
//! and `figures --fig 21` here).
//!
//! Send Time follows the paper's definition: the clock starts before
//! message preparation and stops after the last write to the transport —
//! here a deterministic in-memory `SinkTransport`
//! (`bsoap_transport::SinkTransport`) that touches every byte, standing
//! in for the kernel's socket-buffer copy.

pub mod ablations;
pub mod plot;
pub mod scenarios;
pub mod timing;
pub mod workload;

pub use scenarios::Table;
pub use timing::{measure, measure_batched, Timing};
pub use workload::{Kind, WidthClass, PAPER_SIZES, QUICK_SIZES};
