//! Multi-tenant template-store sweep: resident bytes and tail latency
//! as the tenant population grows 1 → 1,000,000 under one fixed byte
//! budget.
//!
//! ```text
//! cargo run --release -p bsoap-bench --bin tenant_sweep \
//!     [-- --tenants 1,100,10000 --budget-bytes B --quota-bytes Q \
//!          --p99-ratio R --smoke --out FILE]
//! ```
//!
//! Every sweep point drives one differential client against one
//! [`TemplateStore`], cycling the tenant id across the population so each
//! tenant owns its own template key.
//! Without the store's budget the resident template bytes would grow
//! linearly with the tenant count; with it, the cost-aware eviction
//! (cheapest `rebuild_estimate` first) must hold the line.
//!
//! Asserts (exit 1 on failure):
//!
//! * **bounded residency** — at every sweep point the store's resident
//!   bytes stay ≤ the budget, and a from-scratch recount agrees with the
//!   gauge (no accounting drift under churn);
//! * **stable tail** — warm per-call p99 latency across the whole sweep
//!   stays within a generous ratio (default 50×) of the best point:
//!   eviction churn at 1M tenants must not collapse into pathological
//!   tail behaviour;
//! * **reconciliation** — `TemplateHits + TemplateMisses` equals the
//!   number of tiered calls issued, exactly.
//!
//! Writes `BENCH_tenants.json`.

use bsoap_convert::ScalarKind;
use bsoap_core::{Client, EngineConfig, OpDesc, TemplateStore, TypeDesc, Value};
use bsoap_obs::{Counter, EngineStats, Level, Metrics};
use std::sync::Arc;
use std::time::Instant;

fn doubles_op() -> OpDesc {
    OpDesc::single(
        "send",
        "urn:tenants",
        "arr",
        TypeDesc::array_of(TypeDesc::Scalar(ScalarKind::Double)),
    )
}

struct Row {
    tenants: u64,
    calls: u64,
    resident_bytes: u64,
    recount_bytes: u64,
    resident_templates: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    mean_us: f64,
    p50_us: f64,
    p99_us: f64,
}

fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx] as f64 / 1e3
}

/// One sweep point: `calls` tiered sends spread round-robin over
/// `tenants` tenants, all against `store`.
fn run_point(tenants: u64, calls: u64, budget: usize, quota: usize) -> Row {
    let op = doubles_op();
    let store = TemplateStore::shared(budget, quota);
    let metrics = Metrics::shared();
    store.set_metrics(Arc::clone(&metrics));

    let mut client = Client::new(EngineConfig::paper_default());
    client.set_template_store(Arc::clone(&store));

    let mut xs = vec![0.5f64; 16];
    let mut sink = std::io::sink();
    let mut lat_ns: Vec<u64> = Vec::with_capacity(calls as usize);
    for i in 0..calls {
        client.set_tenant(i % tenants);
        // Perturb one value so warm calls exercise the diff path, not
        // just verbatim resends.
        xs[(i % 16) as usize] = i as f64 * 0.618 + 0.125;
        let args = [Value::DoubleArray(xs.clone())];
        let t0 = Instant::now();
        client
            .call("http://svc/sweep", &op, &args, &mut sink)
            .unwrap();
        lat_ns.push(t0.elapsed().as_nanos() as u64);
    }
    lat_ns.sort_unstable();

    let s = EngineStats::snapshot(&metrics);
    Row {
        tenants,
        calls,
        resident_bytes: s.level(Level::TemplateBytesResident),
        recount_bytes: store.recount_bytes(),
        resident_templates: store.template_count(),
        hits: s.get(Counter::TemplateHits),
        misses: s.get(Counter::TemplateMisses),
        evictions: s.get(Counter::TemplateEvictions),
        mean_us: lat_ns.iter().sum::<u64>() as f64 / lat_ns.len().max(1) as f64 / 1e3,
        p50_us: percentile(&lat_ns, 0.50),
        p99_us: percentile(&lat_ns, 0.99),
    }
}

fn main() {
    let mut tenants: Vec<u64> = vec![1, 10, 100, 1_000, 10_000, 100_000, 1_000_000];
    let mut budget = 8 * 1024 * 1024usize;
    let mut quota = 0usize;
    let mut p99_ratio_bound = 50.0f64;
    let mut max_calls = 1_500_000u64;
    let mut out = "BENCH_tenants.json".to_owned();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut next = |what: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {what}");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--tenants" => {
                tenants = next("--tenants")
                    .split(',')
                    .map(|s| s.trim().parse().expect("bad --tenants entry"))
                    .collect();
            }
            "--budget-bytes" => budget = next("--budget-bytes").parse().expect("bad value"),
            "--quota-bytes" => quota = next("--quota-bytes").parse().expect("bad value"),
            "--p99-ratio" => p99_ratio_bound = next("--p99-ratio").parse().expect("bad value"),
            "--max-calls" => max_calls = next("--max-calls").parse().expect("bad value"),
            "--smoke" => {
                tenants = vec![1, 100, 10_000];
                max_calls = 50_000;
            }
            "--out" => out = next("--out"),
            "--help" | "-h" => {
                println!(
                    "usage: tenant_sweep [--tenants a,b,c] [--budget-bytes B] \
                     [--quota-bytes Q] [--p99-ratio R] [--max-calls N] [--smoke] [--out FILE]"
                );
                return;
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }
    tenants.sort_unstable();

    let mut rows = Vec::new();
    for &t in &tenants {
        // Each tenant is visited at least twice so every point measures
        // warm reuse (or eviction-forced rebuilds) rather than only
        // first-time sends.
        let calls = (2 * t).clamp(4_096, max_calls);
        let row = run_point(t, calls, budget, quota);
        println!(
            "tenants={:>8}  calls={:>8}  resident {:>9} B ({} templates)  \
             hits {:>8}  misses {:>8}  evictions {:>8}  p50 {:>7.1} us  p99 {:>7.1} us",
            row.tenants,
            row.calls,
            row.resident_bytes,
            row.resident_templates,
            row.hits,
            row.misses,
            row.evictions,
            row.p50_us,
            row.p99_us,
        );
        rows.push(row);
    }

    // Gates.
    let resident_ok = rows
        .iter()
        .all(|r| r.resident_bytes <= budget as u64 && r.resident_bytes == r.recount_bytes);
    let reconcile_ok = rows.iter().all(|r| r.hits + r.misses == r.calls);
    let p99_min = rows.iter().map(|r| r.p99_us).fold(f64::INFINITY, f64::min);
    let p99_max = rows.iter().map(|r| r.p99_us).fold(0.0f64, f64::max);
    let p99_ratio = p99_max / p99_min.max(1e-9);
    let p99_ok = p99_ratio <= p99_ratio_bound;

    println!(
        "residency: every point <= {budget} B with exact recount -> {}",
        if resident_ok { "ok" } else { "FAIL" },
    );
    println!(
        "tail: p99 {p99_min:.1} us .. {p99_max:.1} us over a {}x tenant sweep \
         (ratio {p99_ratio:.2}, bound {p99_ratio_bound}) -> {}",
        tenants.last().unwrap() / tenants.first().unwrap().max(&1),
        if p99_ok { "ok" } else { "FAIL" },
    );

    let rows_json: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"tenants\": {}, \"calls\": {}, \"resident_bytes\": {}, \
                 \"resident_templates\": {}, \"hits\": {}, \"misses\": {}, \
                 \"evictions\": {}, \"mean_us\": {:.2}, \"p50_us\": {:.2}, \
                 \"p99_us\": {:.2}}}",
                r.tenants,
                r.calls,
                r.resident_bytes,
                r.resident_templates,
                r.hits,
                r.misses,
                r.evictions,
                r.mean_us,
                r.p50_us,
                r.p99_us,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"benchmark\": \"tenant_sweep\",\n  \"budget_bytes\": {budget},\n  \
         \"tenant_quota_bytes\": {quota},\n  \"rows\": [\n{}\n  ],\n  \
         \"residency_pass\": {resident_ok},\n  \
         \"reconciliation_pass\": {reconcile_ok},\n  \
         \"p99\": {{\"min_us\": {p99_min:.2}, \"max_us\": {p99_max:.2}, \
         \"ratio\": {p99_ratio:.4}, \"bound\": {p99_ratio_bound}, \"pass\": {p99_ok}}}\n}}\n",
        rows_json.join(",\n"),
    );
    std::fs::write(&out, json).expect("write report");
    println!("wrote {out}");

    if !resident_ok || !reconcile_ok || !p99_ok {
        eprintln!(
            "FAILED gates: residency={resident_ok} reconciliation={reconcile_ok} p99={p99_ok}"
        );
        std::process::exit(1);
    }
}
