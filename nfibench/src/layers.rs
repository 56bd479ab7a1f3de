//! The per-layer metric catalogue and the traced run's self-time table.

use crate::stats::Metrics;
use crate::trace::Recorder;

/// Every per-layer metric, with its unit. A traced run reports all of
/// them; a layer a workload does not exercise reads 0.
pub const CATALOGUE: [(&str, &str); 42] = [
    ("serve.http.submit_ms", "ms"),
    ("serve.http.document_ms", "ms"),
    ("serve.http.polls_per_job", "count"),
    ("serve.journal.appends_per_job", "count"),
    ("serve.queue.wait_p50_ms", "ms"),
    ("serve.queue.wait_p90_ms", "ms"),
    ("serve.queue.depth_max", "count"),
    ("serve.worker.dispatch_ms", "ms"),
    ("serve.worker.retries", "count"),
    ("core.store.replay_ratio", "ratio"),
    ("core.store.anchor_hit_ratio", "ratio"),
    ("core.store.executed_units", "count"),
    ("core.store.replay_ms", "ms"),
    ("core.store.anchor_fallback_ms", "ms"),
    ("core.store.merge_ms", "ms"),
    ("core.store.persist_ms", "ms"),
    ("core.store.stale_docs", "count"),
    ("sfi.plan_ms", "ms"),
    ("sfi.units_per_campaign", "count"),
    ("core.exec.unit_ms", "ms"),
    ("pylite.parse_ms", "ms"),
    ("pylite.vm_steps_per_unit", "count"),
    ("pylite.vm_steps_per_s", "1/s"),
    ("pylite.budget_exhausted_ratio", "ratio"),
    ("inject.code_cache_hit_ratio", "ratio"),
    ("inject.suite_cache_hit_ratio", "ratio"),
    ("inject.experiment_cache_hit_ratio", "ratio"),
    ("inject.mutant_cache_hit_ratio", "ratio"),
    ("inject.integrate_ms", "ms"),
    ("inject.test_ms", "ms"),
    ("nlp.analyze_ms", "ms"),
    ("llm.generate_ms", "ms"),
    ("llm.candidates_per_request", "count"),
    ("rlhf.session_ms", "ms"),
    ("rlhf.rounds_per_session", "count"),
    ("rlhf.accept_ratio", "ratio"),
    ("dataset.generate_s", "s"),
    ("neural.fine_tune_s", "s"),
    ("bench.generator_lag_ms", "ms"),
    ("bench.backlog_end", "count"),
    ("bench.tracing_overhead", "ratio"),
    ("bench.tracing_overhead_p50", "ratio"),
];

/// The catalogue with every value at 0.
pub fn zeroed() -> Metrics {
    let mut m = Metrics::default();
    for (name, unit) in CATALOGUE {
        m.put(name, 0.0, unit);
    }
    m
}

/// Self time per span name, largest first, as printable lines.
pub fn self_time_table(rec: &Recorder) -> Vec<String> {
    let mut rows: Vec<_> = rec.self_times().into_iter().collect();
    rows.sort_by(|a, b| b.1.self_us.total_cmp(&a.1.self_us));
    let total: f64 = rows.iter().map(|(_, s)| s.self_us).sum();
    let mut out = vec![format!(
        "{:<28} {:>7} {:>12} {:>12} {:>7}",
        "span", "count", "total_ms", "self_ms", "self%"
    )];
    for (name, s) in rows {
        out.push(format!(
            "{:<28} {:>7} {:>12.2} {:>12.2} {:>6.1}%",
            name,
            s.count,
            s.total_us / 1e3,
            s.self_us / 1e3,
            100.0 * s.self_us / total.max(1e-9)
        ));
    }
    out
}
