//! Differential guard for the accelerated exponentiation path: a
//! cluster running the fixed-width kernel with exponent reduction
//! ([`ExpAlgo::Accel`], the default) must answer every query with the
//! same bytes on the wire as one running the PR 4 sliding-window oracle
//! ([`ExpAlgo::Windowed`]) — the whole point of the speedup is that it
//! is algebraically invisible. The trail-verification side (fixed-base
//! powers of x₀ plus multi-exponentiation batch checks) is exercised
//! against the same clusters.

use dla_audit::cluster::{ClusterConfig, DlaCluster};
use dla_audit::integrity;
use dla_audit::plan::TimeWindow;
use dla_crypto::pohlig_hellman::ExpAlgo;
use dla_logstore::fragment::Partition;
use dla_logstore::gen::{generate, WorkloadConfig};
use dla_logstore::model::Glsn;
use dla_logstore::schema::Schema;
use dla_net::NodeId;
use rand::rngs::StdRng;
use rand::SeedableRng;

type Transcript = Vec<(NodeId, NodeId, Vec<u8>)>;

fn loaded_cluster(seed: u64, algo: ExpAlgo) -> (DlaCluster, Vec<Glsn>) {
    let schema = Schema::paper_example();
    let partition = Partition::paper_example(&schema);
    let config = ClusterConfig::new(4, schema)
        .with_partition(partition)
        .with_seed(seed)
        .with_epoch_length(2)
        .with_exp_algo(algo)
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

fn transcript(cluster: &DlaCluster) -> Transcript {
    cluster
        .net()
        .captured_payloads()
        .iter()
        .map(|(from, to, payload)| (*from, *to, payload.to_vec()))
        .collect()
}

/// Same-seed clusters differing only in the exponentiation algorithm
/// answer identically and put the very same bytes on the wire.
#[test]
fn cluster_queries_match_across_exp_algos() {
    let queries = [
        "tid = 'T1100267' and c2 > 100.00",
        "id = c3",
        "(id = 'U1' OR c1 > 0) AND protocol = 'UDP'",
    ];
    let (accel, _) = loaded_cluster(53, ExpAlgo::Accel);
    let (oracle, _) = loaded_cluster(53, ExpAlgo::Windowed);
    for criteria in queries {
        let a = accel.query(criteria).expect("accel query");
        let o = oracle.query(criteria).expect("oracle query");
        assert_eq!(a.glsns, o.glsns, "answers diverged on {criteria}");
        assert_eq!(a.cardinality, o.cardinality);
    }
    assert_eq!(
        accel.net().stats().messages_sent,
        oracle.net().stats().messages_sent
    );
    assert_eq!(
        transcript(&accel),
        transcript(&oracle),
        "query traffic must be byte-identical across exponentiation algorithms"
    );
}

/// The batched verification paths (fixed-base trail refold, RLC window
/// check) agree with the cluster state regardless of which ladder the
/// relay crypto ran on. (Tampering detection on these paths is pinned
/// by the integrity unit tests, which reach the crate-private deposit
/// tamper hook.)
#[test]
fn trail_checks_pass_on_both_exp_algos() {
    for algo in [ExpAlgo::Accel, ExpAlgo::Windowed] {
        let (cluster, glsns) = loaded_cluster(54, algo);
        let full = integrity::check_trail(&cluster);
        assert!(full.ok, "{algo:?}: full trail must verify");
        assert_eq!(full.items_folded, glsns.len() as u64);
        let windowed = integrity::check_window(&cluster, &TimeWindow::unbounded());
        assert!(windowed.ok && windowed.chain_ok, "{algo:?}: window check");
        assert_eq!(windowed.items_folded, glsns.len() as u64);
    }
}
