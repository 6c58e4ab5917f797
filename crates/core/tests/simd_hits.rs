//! `SimdKernelHits` is folded by the send that ran the kernels: the
//! process-global tally is scooped only by a send that has a registry to
//! put it in. One test, its own process — the tally is global.

use bsoap_convert::ScalarKind;
use bsoap_core::config::ChunkConfig;
use bsoap_core::{Client, EngineConfig, MessageTemplate, OpDesc, TypeDesc, Value};
use bsoap_kernels::{peek_simd_hits, record_simd_hits, take_simd_hits};
use bsoap_obs::{Counter, Metrics};
use std::sync::Arc;

#[test]
fn only_a_metered_send_scoops_the_tally() {
    let op = OpDesc::single(
        "stream",
        "urn:t",
        "xs",
        TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Int)),
    );
    let ints = |bump: i32| Value::IntArray((0..320).map(|i| i * 1000 + bump).collect());

    // A flush with no registry leaves the tally to whoever is listening.
    take_simd_hits();
    record_simd_hits(7);
    let mut tpl = MessageTemplate::build(EngineConfig::paper_default(), &op, &[ints(0)]).unwrap();
    tpl.update_args(&[ints(1)]).unwrap();
    tpl.flush();
    assert!(peek_simd_hits() >= 7, "an unmetered flush zeroed the tally");

    // So an overlaid send — whose window fragments carry no registry —
    // reports what its fragment flushes produced: the same two sends
    // unmetered leave in the tally what the metered ones count.
    let overlaid = |metrics: Option<&Arc<Metrics>>| {
        let mut client = Client::new(EngineConfig::paper_default().with_chunk(ChunkConfig::k8()));
        if let Some(m) = metrics {
            client.set_metrics(Arc::clone(m));
        }
        for bump in [0, 1] {
            client
                .call_overlaid_via("ep", &op, &[ints(bump)], |slices| {
                    Ok(slices.iter().map(|s| s.len()).sum())
                })
                .unwrap();
        }
    };
    take_simd_hits();
    overlaid(None);
    let produced = take_simd_hits();
    let metrics = Metrics::shared();
    overlaid(Some(&metrics));
    assert_eq!(metrics.snapshot().get(Counter::SimdKernelHits), produced);
    assert_eq!(peek_simd_hits(), 0, "the metered sends took all of it");
    if bsoap_kernels::resolve(bsoap_kernels::KernelPolicy::Auto).is_simd() {
        assert!(produced > 0, "320 stuffed ints ran no SIMD kernel");
    }
}
