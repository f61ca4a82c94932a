//! The metric registry: every metric the benchmark prints, with its
//! unit and direction. `BENCHMARK.json` lists the same names (a
//! self-test keeps the two in step).

/// Which set a metric belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Set {
    /// Printed by `--trace 0` runs; measured with telemetry off.
    EndToEnd,
    /// Printed by `--trace 1` runs.
    PerLayer,
}

/// One registered metric.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// The set it is printed in.
    pub set: Set,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        set: Set::EndToEnd,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        set: Set::PerLayer,
    }
}

/// Every metric, end-to-end first. Per-layer metrics a workload does
/// not exercise read 0.
pub const METRICS: &[Metric] = &[
    // End to end, reported by every workload; each workload's module
    // documents what its client calls and its cycle are. Times are the
    // process's CPU time (all threads), which excludes hypervisor steal,
    // scaled to a nominal host speed (`env::HostSpeed`); the wall-clock
    // view follows among the per-layer metrics.
    e2e("setup_s", "s", "lower"),
    e2e("cycle_cpu_ms", "ms", "lower"),
    e2e("peak_rss_mib", "MiB", "lower"),
    // Wall clock: throughput, median cycle, set-up, and the share of
    // the machine's CPU time the hypervisor stole meanwhile.
    layer("ops_per_s", "1/s", "higher"),
    layer("cycle_p50_ms", "ms", "lower"),
    layer("setup_wall_s", "s", "lower"),
    layer("host.cpu_steal_share", "ratio", "lower"),
    // Phase metrics (wall clock), from the traced run's untraced pass.
    layer("deposits_per_s", "1/s", "higher"),
    layer("deposit_p50_ms", "ms", "lower"),
    layer("deposit_tail_ms", "ms", "lower"),
    layer("seal_deposit_p50_ms", "ms", "lower"),
    layer("queries_per_s", "1/s", "higher"),
    layer("query_p50_ms", "ms", "lower"),
    layer("query_tail_ms", "ms", "lower"),
    layer("aggregate_p50_ms", "ms", "lower"),
    layer("verify_trail_ms", "ms", "lower"),
    layer("verify_window_ms", "ms", "lower"),
    layer("recovery_s", "s", "lower"),
    layer("failed_op_ratio", "ratio", "lower"),
    layer("samples.deposit", "count", "higher"),
    layer("samples.query", "count", "higher"),
    // audit::cluster
    layer("cluster.log_records_ms", "ms", "lower"),
    layer("cluster.seal_extra_ms", "ms", "lower"),
    // logstore
    layer("logstore.journal_bytes_per_deposit", "B", "lower"),
    layer("logstore.journal_writes_per_deposit", "count", "lower"),
    layer("logstore.journal_append_us_est", "us", "lower"),
    layer("logstore.partials_materialized", "count", "lower"),
    // crypto
    layer("crypto.modexp_per_deposit", "count", "lower"),
    layer("crypto.acc_folds_per_deposit", "count", "lower"),
    layer("crypto.modexp_per_query", "count", "lower"),
    layer("crypto.multi_exp_terms_per_verify", "count", "lower"),
    layer("crypto.fixed_base_builds", "count", "lower"),
    layer("crypto.est_share", "ratio", "lower"),
    // bigint
    layer("bigint.mont_mul_steps_per_deposit", "count", "lower"),
    layer("bigint.mont_mul_steps_per_query", "count", "lower"),
    layer("bigint.mont_mul_steps_per_verify", "count", "lower"),
    layer("bigint.modexp_ns_est_group", "ns", "lower"),
    layer("bigint.modexp_ns_est_acc", "ns", "lower"),
    // mpc
    layer("mpc.rounds_per_query", "count", "lower"),
    layer("mpc.sessions_per_query", "count", "lower"),
    // net
    layer("net.msgs_per_deposit", "count", "lower"),
    layer("net.msgs_per_query", "count", "lower"),
    layer("net.bytes_per_deposit", "B", "lower"),
    layer("net.bytes_per_query", "B", "lower"),
    layer("net.retransmits", "count", "lower"),
    layer("net.virtual_ms_per_query", "ms", "lower"),
    layer("net.tcp_store_rtt_us", "us", "lower"),
    layer("net.tcp_protocol_ms.ssi", "ms", "lower"),
    layer("net.tcp_protocol_ms.union", "ms", "lower"),
    layer("net.tcp_protocol_ms.sum", "ms", "lower"),
    layer("net.tcp_protocol_ms.equality", "ms", "lower"),
    layer("net.tcp_protocol_ms.ranking", "ms", "lower"),
    // audit::{parser, normal, plan} and audit::exec
    layer("plan.ms_per_query", "ms", "lower"),
    layer("plan.subqueries_per_query", "count", "lower"),
    layer("exec.ms_per_query", "ms", "lower"),
    layer("exec.matches_per_query", "count", "higher"),
    // audit::aggregate
    layer("aggregate.windowed_ms", "ms", "lower"),
    layer("aggregate.cached_epoch_ratio", "ratio", "higher"),
    layer("aggregate.fragments_scanned", "count", "lower"),
    // audit::standing
    layer("standing.deltas", "count", "higher"),
    layer("standing.catchup_ms_per_epoch", "ms", "lower"),
    // audit::integrity
    layer("integrity.check_trail_ms", "ms", "lower"),
    layer("integrity.check_window_ms", "ms", "lower"),
    // audit::federation
    layer("federation.check_root_ms", "ms", "lower"),
    layer("federation.rings_per_routed_query", "count", "lower"),
    layer("federation.rings_per_broadcast_query", "count", "lower"),
    layer("federation.publish_catchup", "count", "lower"),
    layer("federation.modelled_ingest_per_s", "1/s", "higher"),
    // audit::deploy
    layer("deploy.mesh_spawn_s", "s", "lower"),
    layer("deploy.run_workload_ms", "ms", "lower"),
    // The ledger: self time per layer as a share of the traced pass's
    // wall time, and what no layer span accounts for.
    layer("ledger.share.cluster", "ratio", "lower"),
    layer("ledger.share.plan", "ratio", "lower"),
    layer("ledger.share.exec", "ratio", "lower"),
    layer("ledger.share.aggregate", "ratio", "lower"),
    layer("ledger.share.standing", "ratio", "lower"),
    layer("ledger.share.integrity", "ratio", "lower"),
    layer("ledger.share.federation", "ratio", "lower"),
    layer("ledger.share.deploy", "ratio", "lower"),
    layer("ledger.share.net_tcp", "ratio", "lower"),
    layer("ledger.unaccounted_share", "ratio", "lower"),
    layer("telemetry.overhead_ratio", "ratio", "lower"),
    // Whole-pass op counts; they repeat exactly for a given seed.
    layer("counts.modexp", "count", "lower"),
    layer("counts.mont_mul_steps", "count", "lower"),
    layer("counts.messages", "count", "lower"),
    layer("counts.acc_fold", "count", "lower"),
];

/// The layer spans the ledger splits wall time across, with the
/// per-layer metric that reports each one's share.
pub const LEDGER_LAYERS: &[(&str, &str)] = &[
    ("cluster", "ledger.share.cluster"),
    ("plan", "ledger.share.plan"),
    ("exec", "ledger.share.exec"),
    ("aggregate", "ledger.share.aggregate"),
    ("standing", "ledger.share.standing"),
    ("integrity", "ledger.share.integrity"),
    ("federation", "ledger.share.federation"),
    ("deploy", "ledger.share.deploy"),
    ("net.tcp", "ledger.share.net_tcp"),
];

/// The registered metrics of one set, in registry order.
pub fn of(set: Set) -> impl Iterator<Item = &'static Metric> {
    METRICS.iter().filter(move |m| m.set == set)
}

/// The registered metric called `name`.
///
/// # Panics
///
/// Panics on an unregistered name: a typo in the benchmark itself.
pub fn lookup(name: &str) -> &'static Metric {
    METRICS
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name:?} is not registered"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        for m in METRICS {
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            assert!(m.name.len() <= 64);
            assert!(m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m.unit.len() <= 16);
            assert!(m.better == "higher" || m.better == "lower");
        }
        for (_, metric) in LEDGER_LAYERS {
            assert_eq!(lookup(metric).set, Set::PerLayer);
        }
    }

    #[test]
    fn benchmark_json_registers_every_metric_with_its_unit_and_direction() {
        let json = include_str!("../../BENCHMARK.json");
        for m in METRICS {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                m.name, m.unit, m.better
            );
            assert_eq!(json.matches(&entry).count(), 1, "{entry}");
        }
        let registered = &json[json.find("\"end_to_end\"").expect("end_to_end")..];
        assert_eq!(registered.matches("\"name\": ").count(), METRICS.len());
    }
}
