//! `audit`: read-only auditing. The ingest cluster's shape with the
//! journal off, preloaded with ~2,000 records (counted in `setup_s`).
//! One client cycle is a fixed mix of ten calls:
//!
//! * four ad-hoc queries — conjunctive (set intersection), disjunctive
//!   (set union), the 4-clause concurrent plan with an
//!   attribute–attribute literal, and a time-windowed selective query;
//! * four aggregates — `count_matching`, `sum_matching`, and
//!   `windowed_bucket_aggregate` on an epoch-aligned window (answered
//!   from cached partials) and on one that cuts an epoch and covers the
//!   open epoch (answered by scanning);
//! * two verifiers — `check_window` over the recent epochs and
//!   `check_trail`.
//!
//! Why: the commutative-cipher/MPC/bigint path does nearly all the
//! work, with no deposits and no journal, and the two windows put the
//! aggregate cache on both sides of its hit/miss line.

use crate::inputs::{time_literal, RecordStream};
use crate::ledger::{self, Client};
use crate::run::{Ctx, Values, Workload};
use crate::{layers, oracle, stats};
use dla_audit::aggregate::{
    count_matching, sum_matching, windowed_bucket_aggregate, AggregatePath, WindowedAggregate,
};
use dla_audit::cluster::{ClusterConfig, DlaCluster};
use dla_audit::exec::{execute_shared, ExecMode, QueryResult};
use dla_audit::integrity::{check_trail, check_window, TrailVerdict};
use dla_audit::plan::{QueryPlan, TimeWindow};
use dla_logstore::fragment::Partition;
use dla_logstore::model::{AttrName, LogRecord};
use dla_logstore::schema::Schema;

const EPOCH_LENGTH: u64 = 64;
const PRELOAD: usize = 2_000;
const TINY_PRELOAD: usize = 320;
const SSI_QUERY: &str = "id = 'U1' AND protocol = 'UDP'";
const UNION_QUERY: &str = "id = 'U2' OR c1 > 90";
/// Four cross-node clauses (each spans two nodes under the paper
/// partition) for the concurrent scheduler, one with an
/// attribute–attribute literal.
const SCHED_QUERY: &str = "(id = 'U1' OR c1 > 30) AND (protocol = 'TCP' OR c2 < 400.00) \
     AND (tid = 'T2' OR c2 > 100.00) AND id != c3";
const COUNT_CRITERIA: &str = "protocol = 'UDP' AND c1 > 50";
const SUM_CRITERIA: &str = "id = 'U2'";
const QUERIES: &[&str] = &["query"];
const VERIFIES: &[&str] = &["verify_trail", "verify_window"];

/// One answer the oracle checks.
#[derive(Clone, Debug, PartialEq)]
enum Answer {
    Query(String, Vec<u64>),
    Count(u64),
    Sum(u64, usize),
    Bucket(usize, u64, Option<i64>),
    Verdict(&'static str, bool),
}

pub struct Audit {
    schema: Schema,
    cluster: DlaCluster,
    records: Vec<LogRecord>,
    window_query: String,
    /// `[aligned, cut]` bucket windows.
    buckets: [TimeWindow; 2],
    recent: TimeWindow,
    seed: u64,
    calls: u64,
    answers: Vec<Answer>,
    subqueries: Vec<usize>,
    virtual_ms: Vec<f64>,
    windowed_ms: Vec<f64>,
    windowed: Vec<WindowedAggregate>,
}

/// The plan for `criteria`: parse, type-check, normalize, plan.
pub fn plan(cluster: &DlaCluster, criteria: &str) -> Result<QueryPlan, String> {
    let parsed = dla_audit::parser::parse(criteria, cluster.schema()).map_err(|e| e.to_string())?;
    parsed.check(cluster.schema()).map_err(|e| e.to_string())?;
    let normalized = dla_audit::normal::normalize(&parsed);
    dla_audit::plan::plan(&normalized, cluster.partition()).map_err(|e| e.to_string())
}

impl Audit {
    fn query(&mut self, client: &Client, criteria: &str) {
        self.calls += 1;
        let query_seed = self.seed ^ self.calls.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let cluster = &self.cluster;
        let result: Option<(QueryResult, usize)> = client.op("query", || {
            let plan = client.span("plan", || plan(cluster, criteria))?;
            let subqueries = plan.subqueries.len();
            let result = client
                .span("exec", || {
                    execute_shared(cluster, &plan, true, ExecMode::Concurrent, query_seed)
                })
                .map_err(|e| e.to_string())?;
            Ok((result, subqueries))
        });
        if let Some((result, subqueries)) = result {
            self.subqueries.push(subqueries);
            self.virtual_ms.push(result.elapsed.as_millis_f64());
            self.answers.push(Answer::Query(
                criteria.to_string(),
                result.glsns.iter().map(|g| g.0).collect(),
            ));
        }
    }

    fn bucket(&mut self, client: &Client, which: usize) {
        let cluster = &self.cluster;
        let window = &self.buckets[which];
        let started = std::time::Instant::now();
        let out = client.op("aggregate", || {
            client
                .span("aggregate", || {
                    windowed_bucket_aggregate(
                        cluster,
                        &AttrName::new("protocol"),
                        "UDP",
                        Some(&AttrName::new("c1")),
                        window,
                        AggregatePath::Cached,
                    )
                })
                .map_err(|e| e.to_string())
        });
        self.windowed_ms.push(started.elapsed().as_secs_f64() * 1e3);
        if let Some(w) = out {
            self.windowed.push(w);
            self.answers.push(Answer::Bucket(which, w.count, w.sum));
        }
    }

    fn verify(
        &mut self,
        client: &Client,
        kind: &'static str,
        f: impl FnOnce(&DlaCluster) -> TrailVerdict,
    ) {
        let cluster = &self.cluster;
        if let Some(v) = client.op(kind, || Ok(client.span("integrity", || f(cluster)))) {
            self.answers.push(Answer::Verdict(kind, v.ok && v.chain_ok));
        }
    }
}

impl Workload for Audit {
    const SETUPS: usize = 9;
    const TRACE_CYCLES: usize = 3;
    const RSS_CYCLES: usize = 2;

    fn setup(ctx: &Ctx) -> Result<Self, String> {
        let schema = Schema::paper_example();
        let mut cluster = DlaCluster::new(
            ClusterConfig::new(4, schema.clone())
                .with_partition(Partition::paper_example(&schema))
                .with_seed(ctx.seed)
                .with_epoch_length(EPOCH_LENGTH),
        )
        .map_err(|e| e.to_string())?;
        let user = cluster
            .register_user("auditee")
            .map_err(|e| e.to_string())?;
        let records =
            RecordStream::new(ctx.seed, 5).take(if ctx.tiny { TINY_PRELOAD } else { PRELOAD });
        cluster
            .log_records(&user, &records)
            .map_err(|e| e.to_string())?;

        // Windows from the sealed epochs' time extents: an aligned
        // window over the middle half (every epoch cached), a window
        // from inside the last sealed epoch through the open one (every
        // epoch scanned), the last four epochs for `check_window`, and
        // a selective query window over the middle tenth.
        let sealed: Vec<(u64, u64)> = cluster
            .epoch_stats()
            .filter(|s| s.sealed)
            .filter_map(|s| Some((s.time_lo?, s.time_hi?)))
            .collect();
        if sealed.len() < 4 {
            return Err(format!("preload sealed only {} epochs", sealed.len()));
        }
        let n = sealed.len();
        let (last_lo, last_hi) = sealed[n - 1];
        let aligned = TimeWindow {
            lo: Some(sealed[n / 4].0),
            hi: Some(sealed[3 * n / 4].1),
        };
        let cut = TimeWindow {
            lo: Some(last_lo + (last_hi - last_lo) / 2),
            hi: None,
        };
        let recent = TimeWindow {
            lo: Some(sealed[n - 3].0),
            hi: None,
        };
        let (t0, t1) = (sealed[0].0, last_hi);
        let window_query = format!(
            "time > '{}' AND time < '{}' AND protocol = 'UDP'",
            time_literal(t0 + (t1 - t0) * 4 / 10),
            time_literal(t0 + (t1 - t0) / 2),
        );
        Ok(Audit {
            schema,
            cluster,
            records,
            window_query,
            buckets: [aligned, cut],
            recent,
            seed: ctx.seed,
            calls: 0,
            answers: Vec::new(),
            subqueries: Vec::new(),
            virtual_ms: Vec::new(),
            windowed_ms: Vec::new(),
            windowed: Vec::new(),
        })
    }

    fn header(&self) -> Vec<(&'static str, String)> {
        vec![
            (
                "group_bits",
                self.cluster.domain().modulus().bit_len().to_string(),
            ),
            (
                "acc_bits",
                self.cluster
                    .accumulator_params()
                    .modulus()
                    .bit_len()
                    .to_string(),
            ),
            ("journal", "off".into()),
            ("preload", self.records.len().to_string()),
        ]
    }

    fn cycle(&mut self, client: &Client, _index: usize) {
        self.query(client, SSI_QUERY);
        self.query(client, UNION_QUERY);
        self.query(client, SCHED_QUERY);
        let window_query = self.window_query.clone();
        self.query(client, &window_query);

        let cluster = &mut self.cluster;
        if let Some(c) = client.op("aggregate", || {
            client
                .span("aggregate", || count_matching(cluster, COUNT_CRITERIA))
                .map_err(|e| e.to_string())
        }) {
            self.answers.push(Answer::Count(c.count as u64));
        }
        let cluster = &mut self.cluster;
        if let Some(s) = client.op("aggregate", || {
            client
                .span("aggregate", || {
                    sum_matching(cluster, SUM_CRITERIA, &AttrName::new("c1"))
                })
                .map_err(|e| e.to_string())
        }) {
            self.answers.push(Answer::Sum(s.total, s.count));
        }
        self.bucket(client, 0);
        self.bucket(client, 1);

        let recent = self.recent;
        self.verify(client, "verify_window", |c| check_window(c, &recent));
        self.verify(client, "verify_trail", check_trail);
    }

    fn check(&self, client: &Client) {
        let mut auditor = match oracle::centralized(&self.schema, &self.records) {
            Ok(a) => a,
            Err(e) => return client.fail(format!("oracle: {e}")),
        };
        let c1 = AttrName::new("c1");
        for answer in &self.answers {
            let outcome = match answer {
                Answer::Query(criteria, got) => oracle::centralized_query(&mut auditor, criteria)
                    .and_then(|want| oracle::same_set(criteria, got, &want)),
                Answer::Count(got) => oracle::centralized_query(&mut auditor, COUNT_CRITERIA)
                    .and_then(|want| oracle::same("count_matching", got, &(want.len() as u64))),
                Answer::Sum(total, count) => oracle::centralized_query(&mut auditor, SUM_CRITERIA)
                    .and_then(|want| {
                        let sum: i64 = auditor
                            .read_everything()
                            .filter(|(g, _)| want.binary_search(&g.0).is_ok())
                            .filter_map(|(_, r)| oracle::numeric(r, &c1))
                            .sum();
                        let sum = u64::try_from(sum).map_err(|e| e.to_string())?;
                        oracle::same("sum_matching", &(*total, *count), &(sum, want.len()))
                    }),
                Answer::Bucket(which, count, sum) => {
                    let (c, s) = oracle::bucket(
                        &self.records,
                        &"protocol".into(),
                        "UDP",
                        &c1,
                        &self.buckets[*which],
                    );
                    oracle::same("windowed_bucket_aggregate", &(*count, *sum), &(c, Some(s)))
                }
                Answer::Verdict(kind, ok) => oracle::same(kind, ok, &true),
            };
            if let Err(e) = outcome {
                client.fail(e);
            }
        }
    }

    fn answers(&self) -> Vec<String> {
        self.answers.iter().map(|a| format!("{a:?}")).collect()
    }

    fn layers(&self, client: &Client, values: &mut Values) {
        let costs = client.costs();
        let spans = client.spans();
        let queries = self.subqueries.len() as f64;
        layers::query_costs(&costs, QUERIES, queries, values);
        layers::verify_costs(&costs, VERIFIES, values);
        let mean = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        values.insert("net.virtual_ms_per_query", mean(&self.virtual_ms));
        values.insert(
            "plan.ms_per_query",
            stats::median(&ledger::layer_ms_per_call(&spans, "plan", QUERIES)),
        );
        values.insert(
            "plan.subqueries_per_query",
            self.subqueries.iter().sum::<usize>() as f64 / queries.max(1.0),
        );
        values.insert(
            "exec.ms_per_query",
            stats::median(&ledger::layer_ms_per_call(&spans, "exec", QUERIES)),
        );
        let matches: usize = self
            .answers
            .iter()
            .map(|a| match a {
                Answer::Query(_, g) => g.len(),
                _ => 0,
            })
            .sum();
        values.insert("exec.matches_per_query", matches as f64 / queries.max(1.0));
        values.insert("aggregate.windowed_ms", stats::median(&self.windowed_ms));
        let cached: usize = self.windowed.iter().map(|w| w.epochs_cached).sum();
        let scanned: usize = self.windowed.iter().map(|w| w.epochs_scanned).sum();
        values.insert(
            "aggregate.cached_epoch_ratio",
            cached as f64 / (cached + scanned).max(1) as f64,
        );
        values.insert(
            "aggregate.fragments_scanned",
            self.windowed
                .iter()
                .map(|w| w.fragments_scanned)
                .sum::<u64>() as f64
                / self.windowed.len().max(1) as f64,
        );
        values.insert(
            "integrity.check_trail_ms",
            stats::median(&ledger::layer_ms_per_call(
                &spans,
                "integrity",
                &["verify_trail"],
            )),
        );
        values.insert(
            "integrity.check_window_ms",
            stats::median(&ledger::layer_ms_per_call(
                &spans,
                "integrity",
                &["verify_window"],
            )),
        );
        layers::calibrate(&self.cluster, values);
    }
}
