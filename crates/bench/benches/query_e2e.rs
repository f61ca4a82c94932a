//! Experiment P5 (Criterion form): end-to-end distributed queries on a
//! loaded cluster vs. the centralized baseline, plus the confidential
//! count aggregate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dla_audit::aggregate;
use dla_audit::centralized::CentralizedAuditor;
use dla_logstore::gen::{generate, WorkloadConfig};
use dla_logstore::schema::Schema;
use rand::SeedableRng;
use std::hint::black_box;

const QUERIES: [(&str, &str); 3] = [
    ("local", "c1 > 50"),
    ("conjunctive", "c1 > 50 AND protocol = 'TCP'"),
    ("cross", "(id = 'U1' OR c1 > 80) AND c2 < 500.00"),
];

fn bench_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("query_e2e");
    group.sample_size(10);

    for (label, query) in QUERIES {
        group.bench_with_input(
            BenchmarkId::new("distributed", label),
            &query,
            |b, &query| {
                let (cluster, _, _) = dla_bench::workload_cluster(4, 100, 13);
                b.iter(|| black_box(cluster.query(query).expect("query runs")));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("centralized", label),
            &query,
            |b, &query| {
                let mut auditor = CentralizedAuditor::new(Schema::paper_example(), 2);
                let user = auditor.register_user().expect("capacity");
                let mut rng = rand::rngs::StdRng::seed_from_u64(13);
                for r in generate(
                    &WorkloadConfig {
                        records: 100,
                        ..WorkloadConfig::default()
                    },
                    &mut rng,
                ) {
                    auditor.log_record(user, &r).expect("logs");
                }
                b.iter(|| black_box(auditor.query_text(query).expect("query runs")));
            },
        );
    }

    group.bench_function("confidential_count", |b| {
        let (mut cluster, _, _) = dla_bench::workload_cluster(4, 100, 13);
        b.iter(|| {
            black_box(aggregate::count_matching(&mut cluster, "protocol = 'UDP'").expect("runs"))
        });
    });

    group.finish();
}

criterion_group!(benches, bench_query);
criterion_main!(benches);
