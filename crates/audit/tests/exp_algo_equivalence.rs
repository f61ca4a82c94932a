//! Differential guard for the accelerated exponentiation path: a
//! cluster running the fixed-width kernel with exponent reduction must
//! answer every query with the same bytes on the wire as one running
//! the sliding-window oracle on the generic slice kernel — the whole
//! point of the speedup is that it is algebraically invisible. Both
//! ladders produced the transcript digest pinned below (111 messages)
//! before the oracle left the runtime API; the cipher and kernel
//! property tests keep the oracles themselves. The trail-verification
//! side (fixed-base powers of x₀ plus multi-exponentiation batch
//! checks) is exercised against the same cluster.

use dla_audit::cluster::{ClusterConfig, DlaCluster};
use dla_audit::integrity;
use dla_audit::plan::TimeWindow;
use dla_crypto::sha256::{self, Sha256};
use dla_logstore::fragment::Partition;
use dla_logstore::gen::{generate, WorkloadConfig};
use dla_logstore::model::Glsn;
use dla_logstore::schema::Schema;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// SHA-256 over the three queries' answers and the captured
/// `(from, to, payload)` transcript of `loaded_cluster(53)`, as the
/// accelerated ladder and the windowed oracle both produced it.
const TRANSCRIPT_DIGEST: &str = "bc52ad3da06837861945671c159580c60ad8c23d2f73fd863f62b21b8a1db491";
const TRANSCRIPT_MESSAGES: u64 = 111;

fn loaded_cluster(seed: u64) -> (DlaCluster, Vec<Glsn>) {
    let schema = Schema::paper_example();
    let partition = Partition::paper_example(&schema);
    let config = ClusterConfig::new(4, schema)
        .with_partition(partition)
        .with_seed(seed)
        .with_epoch_length(2)
        .with_payload_capture();
    let mut cluster = DlaCluster::new(config).expect("cluster builds");
    let user = cluster.register_user("u").expect("capacity");
    let mut rng = StdRng::seed_from_u64(seed);
    let records = generate(
        &WorkloadConfig {
            records: 10,
            ..WorkloadConfig::default()
        },
        &mut rng,
    );
    let glsns = cluster.log_records(&user, &records).expect("logs");
    (cluster, glsns)
}

/// The seeded cluster answers exactly as both exponentiation ladders
/// did and puts the very same bytes on the wire.
#[test]
fn cluster_queries_match_across_exp_algos() {
    let queries = [
        "tid = 'T1100267' and c2 > 100.00",
        "id = c3",
        "(id = 'U1' OR c1 > 0) AND protocol = 'UDP'",
    ];
    let (cluster, _) = loaded_cluster(53);
    let mut h = Sha256::new();
    for criteria in queries {
        let result = cluster.query(criteria).expect("query");
        assert_eq!(result.cardinality, result.glsns.len());
        h.update(&(result.glsns.len() as u64).to_be_bytes());
        for g in &result.glsns {
            h.update(&g.0.to_be_bytes());
        }
    }
    let net = cluster.net();
    assert_eq!(net.stats().messages_sent, TRANSCRIPT_MESSAGES);
    for (from, to, payload) in net.captured_payloads().iter() {
        h.update(&(from.0 as u64).to_be_bytes());
        h.update(&(to.0 as u64).to_be_bytes());
        h.update(&(payload.len() as u64).to_be_bytes());
        h.update(payload);
    }
    assert_eq!(
        sha256::to_hex(&h.finalize()),
        TRANSCRIPT_DIGEST,
        "query traffic must be byte-identical to the oracle ladder's"
    );
}

/// The batched verification paths (fixed-base trail refold, RLC window
/// check) agree with the cluster state after the relay crypto ran.
/// (Tampering detection on these paths is pinned by the integrity unit
/// tests, which reach the crate-private deposit tamper hook.)
#[test]
fn trail_checks_pass_on_both_exp_algos() {
    let (cluster, glsns) = loaded_cluster(54);
    let full = integrity::check_trail(&cluster);
    assert!(full.ok, "full trail must verify");
    assert_eq!(full.items_folded, glsns.len() as u64);
    let windowed = integrity::check_window(&cluster, &TimeWindow::unbounded());
    assert!(windowed.ok && windowed.chain_ok, "window check");
    assert_eq!(windowed.items_folded, glsns.len() as u64);
}
