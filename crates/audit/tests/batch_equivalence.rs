//! Equivalence guard for the batched/pooled crypto hot path: pushing a
//! ring protocol's element sets through [`PhKey::encrypt_batch`] — with
//! or without the scoped-thread worker pool — must be invisible on the
//! wire and in the answers. Every test drives the same seeded protocol
//! twice, once serial and once pooled, and demands byte-identical
//! transcripts and results, on clean networks and under chaos fault
//! schedules.

use dla_audit::cluster::{ClusterConfig, DlaCluster};
use dla_audit::exec::ResilientPolicy;
use dla_crypto::pohlig_hellman::{BatchMode, CommutativeDomain};
use dla_logstore::fragment::Partition;
use dla_logstore::gen::{generate, WorkloadConfig};
use dla_logstore::model::Glsn;
use dla_logstore::schema::Schema;
use dla_mpc::set_intersection::SsiSession;
use dla_mpc::set_union::UnionSession;
use dla_net::topology::Ring;
use dla_net::{NetConfig, NodeId, Session, SimLink, SimNet};
use rand::rngs::StdRng;
use rand::SeedableRng;

const POOLED: BatchMode = BatchMode::Pooled { threads: 4 };

fn capturing_net(n: usize) -> SimNet {
    let mut cfg = NetConfig::ideal();
    cfg.capture_payloads = true;
    SimNet::new(n, cfg)
}

fn items(names: &[&str]) -> Vec<Vec<u8>> {
    names.iter().map(|s| s.as_bytes().to_vec()).collect()
}

type Transcript = Vec<(NodeId, NodeId, Vec<u8>)>;

fn transcript(net: &SimNet) -> Transcript {
    net.captured_payloads()
        .iter()
        .map(|(from, to, payload)| (*from, *to, payload.to_vec()))
        .collect()
}

/// Serial and pooled `∩_s` runs produce byte-identical wire transcripts
/// (every payload, sender and receiver) and the same revealed items.
#[test]
fn ssi_transcript_is_bit_identical_across_batch_modes() {
    let inputs = vec![
        items(&["c", "d", "e", "q"]),
        items(&["d", "e", "f"]),
        items(&["e", "f", "g", "d"]),
        items(&["e", "d", "zz"]),
    ];
    let run = |batch: BatchMode| {
        let mut net = capturing_net(4);
        let session_id = net.open_session();
        let link = SimLink::new(&mut net);
        let ring = Ring::canonical(4);
        let domain = CommutativeDomain::fixed_256();
        let mut rng = StdRng::seed_from_u64(77);
        let outcome = SsiSession::new(Session::new(&link, session_id), &ring, &domain, NodeId(0))
            .reveal(true)
            .batch(batch)
            .run(&inputs, &mut rng)
            .expect("ssi runs");
        (
            outcome.common_items.expect("reveal requested"),
            outcome.report.messages,
            transcript(&net),
        )
    };
    let (serial_items, serial_msgs, serial_wire) = run(BatchMode::Serial);
    let (pooled_items, pooled_msgs, pooled_wire) = run(POOLED);
    assert_eq!(serial_items, items(&["d", "e"]));
    assert_eq!(serial_items, pooled_items);
    assert_eq!(serial_msgs, pooled_msgs);
    assert_eq!(
        serial_wire, pooled_wire,
        "wire transcripts must match byte for byte"
    );
    assert!(!serial_wire.is_empty());
}

/// The same guarantee for `∪_s`.
#[test]
fn union_transcript_is_bit_identical_across_batch_modes() {
    let inputs = vec![
        items(&["c", "d", "e"]),
        items(&["d", "e", "f"]),
        items(&["e", "f", "g"]),
    ];
    let run = |batch: BatchMode| {
        let mut net = capturing_net(3);
        let session_id = net.open_session();
        let link = SimLink::new(&mut net);
        let ring = Ring::canonical(3);
        let domain = CommutativeDomain::fixed_256();
        let mut rng = StdRng::seed_from_u64(78);
        let outcome = UnionSession::new(Session::new(&link, session_id), &ring, &domain, NodeId(1))
            .batch(batch)
            .run(&inputs, &mut rng)
            .expect("union runs");
        (outcome.items, outcome.report.messages, transcript(&net))
    };
    let (serial_items, serial_msgs, serial_wire) = run(BatchMode::Serial);
    let (pooled_items, pooled_msgs, pooled_wire) = run(POOLED);
    assert_eq!(serial_items, items(&["c", "d", "e", "f", "g"]));
    assert_eq!(serial_items, pooled_items);
    assert_eq!(serial_msgs, pooled_msgs);
    assert_eq!(serial_wire, pooled_wire);
}

fn loaded_cluster(seed: u64, batch: BatchMode, capture: bool) -> (DlaCluster, Vec<Glsn>) {
    let schema = Schema::paper_example();
    let partition = Partition::paper_example(&schema);
    let mut config = ClusterConfig::new(4, schema)
        .with_partition(partition)
        .with_seed(seed)
        .with_batch_mode(batch);
    if capture {
        config = config.with_payload_capture();
    }
    let mut cluster = DlaCluster::new(config).expect("cluster builds");
    let user = cluster.register_user("u").expect("capacity");
    let mut rng = StdRng::seed_from_u64(seed);
    let records = generate(
        &WorkloadConfig {
            records: 12,
            ..WorkloadConfig::default()
        },
        &mut rng,
    );
    let glsns = cluster.log_records(&user, &records).expect("logs");
    (cluster, glsns)
}

/// Full-query equivalence: two same-seed clusters differing only in
/// batch mode answer identically and put the same bytes on the wire.
#[test]
fn cluster_queries_match_across_batch_modes() {
    let queries = [
        "tid = 'T1100267' and c2 > 100.00",
        "id = c3",
        "(id = 'U1' OR c1 > 0) AND protocol = 'UDP'",
    ];
    let (serial_cluster, _) = loaded_cluster(33, BatchMode::Serial, true);
    let (pooled_cluster, _) = loaded_cluster(33, POOLED, true);
    for criteria in queries {
        let serial = serial_cluster.query(criteria).expect("serial query");
        let pooled = pooled_cluster.query(criteria).expect("pooled query");
        assert_eq!(serial.glsns, pooled.glsns, "answers diverged on {criteria}");
        assert_eq!(serial.cardinality, pooled.cardinality);
    }
    let serial_net = serial_cluster.net();
    let pooled_net = pooled_cluster.net();
    assert_eq!(
        serial_net.stats().messages_sent,
        pooled_net.stats().messages_sent
    );
    assert_eq!(
        transcript(&serial_net),
        transcript(&pooled_net),
        "query traffic must be byte-identical across batch modes"
    );
}

/// Chaos guard: under a seeded 5% drop + 5% duplicate fault schedule,
/// the resilient executor returns the same answers in both batch modes
/// — and because the transcripts are identical, the two runs hit the
/// very same fault schedule and even agree on total message counts.
#[test]
fn chaos_fault_schedules_cannot_tell_batch_modes_apart() {
    let run = |batch: BatchMode| {
        let (mut cluster, _) = loaded_cluster(91, batch, false);
        {
            let mut net = cluster.net_mut();
            let faults = net.faults_mut();
            faults.drop_probability = 0.05;
            faults.duplicate_probability = 0.05;
        }
        let policy = ResilientPolicy::default();
        let outcome = cluster
            .query_resilient("c1 > 0 and protocol = 'UDP'", &policy)
            .expect("resilient query");
        let messages = cluster.net().stats().messages_sent;
        (outcome.result.glsns, outcome.attempts, messages)
    };
    let (serial_glsns, serial_attempts, serial_msgs) = run(BatchMode::Serial);
    let (pooled_glsns, pooled_attempts, pooled_msgs) = run(POOLED);
    assert!(!serial_glsns.is_empty());
    assert_eq!(serial_glsns, pooled_glsns);
    assert_eq!(serial_attempts, pooled_attempts);
    assert_eq!(serial_msgs, pooled_msgs);
}
