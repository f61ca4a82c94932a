//! Per-layer metrics several workloads compute the same way: counters
//! per deposited record, per query and per verification, and the
//! calibrated unit costs of the `bigint` kernels.

use crate::env;
use crate::ledger::{self, OpCost};
use crate::run::Values;
use dla_audit::cluster::DlaCluster;

/// `crypto`, `bigint` and `net` counters per deposited record over the
/// calls of kinds `deposits`.
pub fn deposit_costs(costs: &[OpCost], deposits: &[&str], records: f64, values: &mut Values) {
    values.insert(
        "crypto.modexp_per_deposit",
        ledger::per(costs, deposits, records, |c| c.modexp),
    );
    values.insert(
        "crypto.acc_folds_per_deposit",
        ledger::per(costs, deposits, records, |c| c.acc_fold),
    );
    values.insert(
        "bigint.mont_mul_steps_per_deposit",
        ledger::per(costs, deposits, records, |c| c.mont_mul_steps),
    );
    values.insert(
        "net.msgs_per_deposit",
        ledger::per(costs, deposits, records, |c| c.msgs_sent),
    );
    values.insert(
        "net.bytes_per_deposit",
        ledger::per(costs, deposits, records, |c| c.bytes_sent),
    );
}

/// `crypto`, `bigint`, `mpc` and `net` counters per query over the
/// calls of kinds `calls`, which ran `queries` queries between them.
pub fn query_costs(costs: &[OpCost], calls: &[&str], queries: f64, values: &mut Values) {
    values.insert(
        "crypto.modexp_per_query",
        ledger::per(costs, calls, queries, |c| c.modexp),
    );
    values.insert(
        "bigint.mont_mul_steps_per_query",
        ledger::per(costs, calls, queries, |c| c.mont_mul_steps),
    );
    values.insert(
        "mpc.rounds_per_query",
        ledger::per(costs, calls, queries, |c| c.rounds),
    );
    let (_, _, sessions) = ledger::cost_of(costs, calls);
    values.insert(
        "mpc.sessions_per_query",
        if queries > 0.0 {
            sessions as f64 / queries
        } else {
            0.0
        },
    );
    values.insert(
        "net.msgs_per_query",
        ledger::per(costs, calls, queries, |c| c.msgs_sent),
    );
    values.insert(
        "net.bytes_per_query",
        ledger::per(costs, calls, queries, |c| c.bytes_sent),
    );
}

/// `crypto` and `bigint` counters per verification call.
pub fn verify_costs(costs: &[OpCost], verifies: &[&str], values: &mut Values) {
    let (_, calls, _) = ledger::cost_of(costs, verifies);
    let calls = calls as f64;
    values.insert(
        "crypto.multi_exp_terms_per_verify",
        ledger::per(costs, verifies, calls, |c| c.multi_exp_terms),
    );
    values.insert(
        "bigint.mont_mul_steps_per_verify",
        ledger::per(costs, verifies, calls, |c| c.mont_mul_steps),
    );
}

/// Counters every traced pass reports, over all its calls.
pub fn pass_totals(costs: &[OpCost], values: &mut Values) {
    let mut kinds: Vec<&str> = costs.iter().map(|c| c.kind).collect();
    kinds.sort_unstable();
    kinds.dedup();
    let (total, _, _) = ledger::cost_of(costs, &kinds);
    values.insert("crypto.fixed_base_builds", total.fixed_base_builds as f64);
    values.insert("net.retransmits", total.retransmits as f64);
    values.insert("counts.modexp", total.modexp as f64);
    values.insert("counts.mont_mul_steps", total.mont_mul_steps as f64);
    values.insert("counts.messages", total.msgs_sent as f64);
    values.insert("counts.acc_fold", total.acc_fold as f64);
}

/// Modexp unit costs at the cluster's own Pohlig–Hellman group and
/// accumulator moduli.
pub fn calibrate(cluster: &DlaCluster, values: &mut Values) {
    values.insert(
        "bigint.modexp_ns_est_group",
        env::modexp_ns(cluster.domain().modulus(), 1),
    );
    values.insert(
        "bigint.modexp_ns_est_acc",
        env::modexp_ns(cluster.accumulator_params().modulus(), 2),
    );
}
