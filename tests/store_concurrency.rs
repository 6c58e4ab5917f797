//! Shared-store theorems, workspace level.
//!
//! 1. **Concurrency safety**: N threads hammering M tenants through one
//!    [`TemplateStore`] never corrupt the byte accounting — at quiescence
//!    the resident gauge equals a from-scratch recount, the global budget
//!    and per-tenant quotas hold, and the hit/miss counters reconcile
//!    exactly with the number of lookups issued. The budget and quotas
//!    hold at every instant too: an observer thread samples them while
//!    the workers run.
//! 2. **Eviction transparency**: a client whose store budget holds about
//!    two templates stays, on every call of any schedule, what the
//!    executable spec (`common::spec`) says — bytes ≡ a full
//!    serialization, within budget — the spec being told of a budget
//!    eviction, so the call pays `FirstTime` exactly when its template
//!    was evicted.

mod common;

use bsoap::obs::{Counter, EngineStats, Level, Metrics};
use bsoap::{
    EngineConfig, MessageTemplate, StoreKey, TemplateKey, TemplateStore, Value, WireFormat,
};
use common::spec::{apply, doubles, doubles_op, small_f64, update_strategy};
use common::Rig;
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn arr_tpl(format: WireFormat, n: usize) -> MessageTemplate {
    MessageTemplate::build(
        EngineConfig::paper_default().with_wire_format(format),
        &doubles_op(),
        &doubles(&vec![0.5; n]),
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// N threads × M tenants × S steps of checkout/admit against one
    /// store. Every thread counts its own lookups; the store's counters
    /// must reconcile exactly, and every byte invariant must hold once
    /// the threads join. The store counts bytes, not lanes: each case
    /// stocks it with templates of one lane picked by the schedule.
    #[test]
    fn concurrent_store_accounting_holds(
        lane in 0usize..WireFormat::ALL.len(),
        threads in 2usize..5,
        tenants in 1u64..5,
        steps in 4usize..24,
        budget_kb in prop_oneof![Just(0usize), 2usize..16],
        quota_kb in prop_oneof![Just(0usize), 1usize..8],
    ) {
        let format = WireFormat::ALL[lane];
        let budget = budget_kb * 1024;
        let quota = quota_kb * 1024;
        let store = TemplateStore::shared(budget, quota);
        let metrics = Metrics::shared();
        store.set_metrics(Arc::clone(&metrics));

        // No reservation is taken, so every sample — not only the last —
        // must sit within the budget and every tenant's quota.
        let done = Arc::new(AtomicBool::new(false));
        let observer = {
            let (store, done) = (Arc::clone(&store), Arc::clone(&done));
            std::thread::spawn(move || {
                while !done.load(Ordering::Relaxed) {
                    let resident = store.resident_bytes();
                    if budget > 0 && resident > budget as u64 {
                        return Some(format!("resident {resident} exceeds budget {budget}"));
                    }
                    for tenant in 0..tenants {
                        let held = store.tenant_resident_bytes(tenant);
                        if quota > 0 && held > quota as u64 {
                            return Some(format!(
                                "tenant {tenant} resident {held} exceeds quota {quota}"
                            ));
                        }
                    }
                }
                None
            })
        };
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    let mut lookups = 0u64;
                    for step in 0..steps {
                        // Deterministic per-thread schedule spread over
                        // tenants, keys, and template sizes.
                        let tenant = ((t + step) as u64) % tenants;
                        let ep = format!("ep{}", (t * 7 + step * 3) % 3);
                        let skey =
                            StoreKey::new(tenant, TemplateKey::new(&ep, &doubles_op()));
                        let n = 4 + (t * 13 + step * 5) % 48;
                        let args = [Value::DoubleArray(vec![0.5; n])];
                        lookups += 1;
                        match store.checkout(&skey, &args, 2).hit() {
                            Some(tpl) if step % 5 == 4 => {
                                // Simulate a cost-gate fallback: discard
                                // the checked-out template, save a fresh
                                // one. Bytes must not strand.
                                store.note_discard(&tpl);
                                drop(tpl);
                                store.admit(skey, arr_tpl(format, n), 2);
                            }
                            Some(tpl) => {
                                store.admit(skey, tpl, 2);
                            }
                            None => {
                                store.admit(skey, arr_tpl(format, n), 2);
                            }
                        }
                    }
                    lookups
                })
            })
            .collect();
        let total_lookups: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        done.store(true, Ordering::Relaxed);
        let overshoot = observer.join().unwrap();
        prop_assert!(overshoot.is_none(), "mid-run: {}", overshoot.unwrap_or_default());

        // Byte accounting: gauge == recount, budget and quotas hold.
        prop_assert_eq!(store.recount_bytes(), store.resident_bytes());
        if budget > 0 {
            prop_assert!(
                store.resident_bytes() <= budget as u64,
                "resident {} exceeds budget {}",
                store.resident_bytes(),
                budget
            );
        }
        if quota > 0 {
            for tenant in 0..tenants {
                prop_assert!(
                    store.tenant_resident_bytes(tenant) <= quota as u64,
                    "tenant {} resident {} exceeds quota {}",
                    tenant,
                    store.tenant_resident_bytes(tenant),
                    quota
                );
            }
        }

        // Exact reconciliation: each checkout ticked exactly one of
        // hits/misses, and the resident gauge mirrors the byte count.
        let s = EngineStats::snapshot(&metrics);
        prop_assert_eq!(
            s.get(Counter::TemplateHits) + s.get(Counter::TemplateMisses),
            total_lookups
        );
        prop_assert_eq!(s.level(Level::TemplateBytesResident), store.resident_bytes());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A store budget of about two templates, schedules over 1–3
    /// endpoints, so evictions happen mid-schedule: every call is what the
    /// spec says of the templates still resident, and the byte accounting
    /// holds after every call.
    #[test]
    fn budgeted_store_matches_full_serialization(
        initial in prop::collection::vec(small_f64(), 1..32),
        steps in prop::collection::vec(update_strategy(48), 1..16),
        endpoints in 1usize..4,
    ) {
        let config = EngineConfig::paper_default();
        let mut rig = Rig::new(doubles_op(), config);
        let budget = 2 * MessageTemplate::build(config, &rig.op, &doubles(&initial))
            .unwrap()
            .message_len();
        let store = TemplateStore::shared(budget, 0);
        rig.client.set_template_store(Arc::clone(&store));

        let mut xs = initial;
        for (i, step) in steps.iter().enumerate() {
            apply(&mut xs, step);
            let endpoint = format!("http://svc/{}", i % endpoints);
            // The budget evicts behind the client's back: tell the spec.
            // (It never goes the other way: nothing is resident that the
            // spec does not know was saved.)
            let resident = store.contains(&StoreKey::new(0, TemplateKey::new(&endpoint, &rig.op)));
            prop_assert!(rig.spec.has_template(&endpoint) || !resident);
            if !resident {
                rig.spec.evict(&endpoint);
            }
            rig.send(&endpoint, &doubles(&xs))?;
            prop_assert!(store.resident_bytes() <= budget as u64);
            prop_assert_eq!(store.resident_bytes(), store.recount_bytes());
        }
    }
}
