//! Experiment F1: the Figure 1 centralized auditing baseline — one
//! auditor, plaintext repository, full visibility — with its cost and
//! exposure profile, side by side with the DLA cluster on the same
//! workload.
//!
//! Run with: `cargo run -p dla-bench --bin fig1_centralized --release`

use dla_audit::centralized::CentralizedAuditor;
use dla_bench::{fmt_bytes, render_table, timed};
use dla_logstore::gen::{generate, WorkloadConfig};
use dla_logstore::schema::Schema;
use rand::SeedableRng;

fn main() {
    let schema = Schema::paper_example();
    let mut rng = rand::rngs::StdRng::seed_from_u64(10);
    let records = generate(
        &WorkloadConfig {
            records: 100,
            ..WorkloadConfig::default()
        },
        &mut rng,
    );
    let queries = [
        "c1 > 50",
        "protocol = 'TCP' AND c2 > 100.00",
        "(id = 'U1' OR id = 'U2') AND c1 < 20",
    ];

    // Centralized (Fig. 1).
    let mut auditor = CentralizedAuditor::new(schema.clone(), 2);
    let user = auditor.register_user().expect("capacity");
    let (_, log_ms) = timed(|| {
        for r in &records {
            auditor.log_record(user, r).expect("logging succeeds");
        }
    });
    let log_msgs = auditor.net().stats().messages_sent;
    let log_bytes = auditor.net().stats().bytes_sent;
    let mut central_rows = Vec::new();
    for q in queries {
        let (result, ms) = timed(|| auditor.query_text(q).expect("query succeeds"));
        central_rows.push(vec![
            q.to_owned(),
            result.len().to_string(),
            format!("{ms:.2} ms"),
            "0".into(),
            "auditor sees ALL attributes of ALL records".into(),
        ]);
    }

    // Distributed (Fig. 2) on the same workload.
    let (cluster, _cluster_user, _glsns) = dla_bench::workload_cluster(4, 100, 10);
    let dla_log_msgs = cluster.net().stats().messages_sent;
    let dla_log_bytes = cluster.net().stats().bytes_sent;
    let mut dla_rows = Vec::new();
    for q in queries {
        let (result, ms) = timed(|| cluster.query(q).expect("query succeeds"));
        dla_rows.push(vec![
            q.to_owned(),
            result.glsns.len().to_string(),
            format!("{ms:.2} ms"),
            result.messages.to_string(),
            format!("C_auditing = {:.2}", result.auditing_confidentiality),
        ]);
    }

    println!(
        "{}",
        render_table(
            "FIGURE 1 BASELINE - CENTRALIZED AUDITING (100-record workload)",
            &["query", "matches", "latency", "msgs", "exposure"],
            &central_rows
        )
    );
    println!(
        "logging: {log_msgs} messages, {} plaintext, {log_ms:.1} ms\n",
        fmt_bytes(log_bytes)
    );
    println!(
        "{}",
        render_table(
            "FIGURE 2 SYSTEM - DLA CLUSTER, SAME WORKLOAD",
            &["query", "matches", "latency", "msgs", "exposure"],
            &dla_rows
        )
    );
    println!(
        "logging: {dla_log_msgs} messages, {} (fragmented + deposits)",
        fmt_bytes(dla_log_bytes)
    );
    println!("\nshape: the centralized auditor is cheaper but sees everything;");
    println!("the DLA cluster pays messages/crypto to keep every node partially blind.");
}
