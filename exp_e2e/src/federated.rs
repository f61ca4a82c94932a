//! `federated`: writes beside reads on a `FederatedCluster` of 4 rings
//! × 4 nodes with 64 users, epoch length 32 and one federated standing
//! query. One client cycle deposits four 8-record batches round-robin
//! over the users, then runs a routed query (one ring), a broadcast
//! query (all rings) and a federated `count` (the root ring's secure
//! sum), each over the most recent 256 deposits so a read costs the
//! same late in a run as early on. After the loop: `check_root` plus `check_federated_trail` on
//! every ring, and the publication catch-up sweep, which must find
//! nothing.
//!
//! Why: routing, root publish/endorsement and the root secure sum work
//! only here, and with the journal off, deposit-path crypto and seal
//! changes show here while `ingest` hides them behind fsync.

use crate::inputs::{time_literal, RecordStream};
use crate::ledger::{self, Client};
use crate::run::{Ctx, Values, Workload};
use crate::{layers, oracle, stats};
use dla_audit::federation::{FederatedCluster, FederationConfig};
use dla_audit::integrity::check_federated_trail;
use dla_audit::standing::StandingQueryId;
use dla_logstore::fragment::Partition;
use dla_logstore::model::{AttrValue, LogRecord};
use dla_logstore::schema::Schema;
use std::collections::BTreeSet;

const RINGS: usize = 4;
const NODES_PER_RING: usize = 4;
const USERS: usize = 64;
const EPOCH_LENGTH: u64 = 32;
const BATCH: usize = 8;
const BATCHES_PER_CYCLE: usize = 4;
const STANDING: &str = "protocol = 'UDP'";
const BROADCAST: &str = "protocol = 'UDP' AND c1 > 80";
const COUNT: &str = "protocol = 'TCP' AND c2 < 300.00";
const VERIFY_REPEATS: usize = 3;
/// Reads cover this many of the most recent deposits.
const RECENT: usize = 256;
const DEPOSIT: &[&str] = &["deposit", "seal_deposit"];

/// One read answer and how many records were deposited when it ran.
#[derive(Clone, Debug, PartialEq)]
enum Answer {
    Query {
        criteria: String,
        prefix: usize,
        records: Vec<u64>,
        rings: usize,
    },
    Count {
        criteria: String,
        prefix: usize,
        count: u64,
    },
}

pub struct Federated {
    schema: Schema,
    fed: FederatedCluster,
    standing: StandingQueryId,
    stream: RecordStream,
    records: Vec<LogRecord>,
    batches: usize,
    answers: Vec<Answer>,
    verdicts: Vec<bool>,
    catchup: Option<usize>,
}

fn user(i: usize) -> String {
    format!("U{}", i % USERS + 1)
}

impl Federated {
    /// A time literal selecting the last [`RECENT`] deposits: reads audit
    /// recent activity, so their cost does not grow with the trail.
    fn recent(&self) -> String {
        let from = self.records.len().saturating_sub(RECENT);
        let t = self
            .records
            .get(from)
            .map_or(0, |r| match r.get(&"time".into()) {
                Some(AttrValue::Time(t)) => *t,
                _ => 0,
            });
        format!("time >= '{}'", time_literal(t))
    }

    fn query(&mut self, client: &Client, criteria: &str) {
        let fed = &mut self.fed;
        if let Some(r) = client.op("query", || {
            client
                .span("federation", || fed.query(criteria))
                .map_err(|e| e.to_string())
        }) {
            self.answers.push(Answer::Query {
                criteria: criteria.to_string(),
                prefix: self.records.len(),
                records: r.records,
                rings: r.rings_queried.len(),
            });
        }
    }
}

impl Workload for Federated {
    const SETUPS: usize = 60;
    const TRACE_CYCLES: usize = 25;
    const RSS_CYCLES: usize = 40;

    fn setup(ctx: &Ctx) -> Result<Self, String> {
        let schema = Schema::paper_example();
        let mut fed = FederatedCluster::new(
            FederationConfig::new(RINGS, NODES_PER_RING, schema.clone())
                .with_partition(Partition::paper_example(&schema))
                .with_seed(ctx.seed)
                .with_epoch_length(EPOCH_LENGTH)
                .with_max_users(USERS),
        )
        .map_err(|e| e.to_string())?;
        for u in 0..USERS {
            fed.register_user(&user(u)).map_err(|e| e.to_string())?;
        }
        let standing = fed.register_standing(STANDING).map_err(|e| e.to_string())?;
        Ok(Federated {
            schema,
            fed,
            standing,
            stream: RecordStream::new(ctx.seed, USERS),
            records: Vec::new(),
            batches: 0,
            answers: Vec::new(),
            verdicts: Vec::new(),
            catchup: None,
        })
    }

    fn header(&self) -> Vec<(&'static str, String)> {
        let ring = self.fed.ring(0);
        vec![
            ("group_bits", ring.domain().modulus().bit_len().to_string()),
            (
                "acc_bits",
                ring.accumulator_params().modulus().bit_len().to_string(),
            ),
            ("journal", "off".into()),
            ("rings", format!("{RINGS}x{NODES_PER_RING}")),
            ("users", USERS.to_string()),
        ]
    }

    fn cycle(&mut self, client: &Client, index: usize) {
        for _ in 0..BATCHES_PER_CYCLE {
            let name = user(self.batches);
            self.batches += 1;
            // The router's contract: a record's id is its depositor.
            let batch: Vec<LogRecord> = self
                .stream
                .take(BATCH)
                .into_iter()
                .map(|r| r.with("id", AttrValue::text(&name)))
                .collect();
            let published = self.fed.published().len();
            let fed = &mut self.fed;
            let ok = client.op("deposit", || {
                client
                    .span("federation", || fed.log_records(&name, &batch))
                    .map_err(|e| e.to_string())
            });
            if self.fed.published().len() > published {
                client.relabel_last("seal_deposit");
            }
            if ok.is_some() {
                self.records.extend(batch);
            }
        }
        let recent = self.recent();
        self.query(
            client,
            &format!("id = '{}' AND c1 > 50 AND {recent}", user(index * 7)),
        );
        self.query(client, &format!("{BROADCAST} AND {recent}"));
        let count = format!("{COUNT} AND {recent}");
        let fed = &mut self.fed;
        if let Some(c) = client.op("aggregate", || {
            client
                .span("federation", || fed.count(&count))
                .map_err(|e| e.to_string())
        }) {
            self.answers.push(Answer::Count {
                criteria: count,
                prefix: self.records.len(),
                count: c.count,
            });
        }
    }

    fn post(&mut self, client: &Client) {
        for _ in 0..VERIFY_REPEATS {
            let fed = &self.fed;
            if let Some(ok) = client.op("verify_trail", || {
                let root = client.span("federation", || fed.check_root());
                let rings = client.span("integrity", || {
                    (0..fed.num_rings()).all(|r| check_federated_trail(fed, r).ok())
                });
                Ok(root.ok() && rings)
            }) {
                self.verdicts.push(ok);
            }
        }
        let fed = &mut self.fed;
        self.catchup = client.op("publish_catchup", || {
            client
                .span("federation", || fed.publish_checkpoints())
                .map_err(|e| e.to_string())
        });
    }

    fn check(&self, client: &Client) {
        let indexed = |prefix: usize| {
            self.records[..prefix]
                .iter()
                .enumerate()
                .map(|(i, r)| (i as u64, r))
        };
        for answer in &self.answers {
            let outcome = match answer {
                Answer::Query {
                    criteria,
                    prefix,
                    records,
                    ..
                } => oracle::matching(&self.schema, criteria, indexed(*prefix))
                    .and_then(|want| oracle::same_set(criteria, records, &want)),
                Answer::Count {
                    criteria,
                    prefix,
                    count,
                } => oracle::matching(&self.schema, criteria, indexed(*prefix))
                    .and_then(|want| oracle::same("federated count", count, &(want.len() as u64))),
            };
            if let Err(e) = outcome {
                client.fail(e);
            }
        }
        if self.verdicts.iter().any(|ok| !ok) {
            client.fail("check_root / check_federated_trail failed".into());
        }
        if self.catchup != Some(0) {
            client.fail(format!(
                "publish catch-up swept {:?} checkpoints; push-at-seal must leave none",
                self.catchup
            ));
        }
        // The standing subscription covers exactly the sealed epochs of
        // every ring, identified by global deposit index.
        let sealed: BTreeSet<u64> = self
            .fed
            .rings()
            .iter()
            .flat_map(|ring| {
                ring.epoch_stats()
                    .filter(|s| s.sealed && s.deposits > 0)
                    .flat_map(|s| s.glsn_lo.0..=s.glsn_hi.0)
                    .collect::<Vec<_>>()
            })
            .filter_map(|g| self.fed.deposit_index(dla_logstore::model::Glsn(g)))
            .collect();
        let got = self.fed.standing_matches(self.standing).unwrap_or_default();
        let outcome = oracle::matching(
            &self.schema,
            STANDING,
            indexed(self.records.len()).filter(|(i, _)| sealed.contains(i)),
        )
        .and_then(|want| oracle::same_set("federated standing", &got, &want));
        if let Err(e) = outcome {
            client.fail(e);
        }
    }

    fn answers(&self) -> Vec<String> {
        let mut out: Vec<String> = self.answers.iter().map(|a| format!("{a:?}")).collect();
        out.push(format!("{:?}", self.fed.standing_matches(self.standing)));
        out
    }

    fn phase(&self, _client: &Client, loop_s: f64, values: &mut Values) {
        values.insert("deposits_per_s", self.records.len() as f64 / loop_s);
    }

    fn layers(&self, client: &Client, values: &mut Values) {
        let costs = client.costs();
        let spans = client.spans();
        let records = self.records.len() as f64;
        let deposit_ms =
            |kinds: &[&str]| stats::median(&ledger::layer_ms_per_call(&spans, "federation", kinds));
        values.insert("cluster.log_records_ms", deposit_ms(DEPOSIT));
        values.insert(
            "cluster.seal_extra_ms",
            deposit_ms(&["seal_deposit"]) - deposit_ms(&["deposit"]),
        );
        values.insert(
            "logstore.partials_materialized",
            ledger::per(&costs, DEPOSIT, 1.0, |c| c.partials_materialized),
        );
        layers::deposit_costs(&costs, DEPOSIT, records, values);
        let queries = client.latencies(&["query"]).len() as f64;
        layers::query_costs(&costs, &["query"], queries, values);
        layers::verify_costs(&costs, &["verify_trail"], values);
        values.insert(
            "standing.deltas",
            ledger::per(&costs, DEPOSIT, 1.0, |c| c.standing_deltas),
        );
        let spans_root: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == "federation" && s.kind == "verify_trail")
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect();
        values.insert("federation.check_root_ms", stats::median(&spans_root));
        values.insert(
            "integrity.check_trail_ms",
            stats::median(&ledger::layer_ms_per_call(
                &spans,
                "integrity",
                &["verify_trail"],
            )),
        );
        let rings = |broadcast: bool| {
            let r: Vec<f64> = self
                .answers
                .iter()
                .filter_map(|a| match a {
                    Answer::Query {
                        criteria, rings, ..
                    } if criteria.starts_with(BROADCAST) == broadcast => Some(*rings as f64),
                    _ => None,
                })
                .collect();
            r.iter().sum::<f64>() / r.len().max(1) as f64
        };
        values.insert("federation.rings_per_routed_query", rings(false));
        values.insert("federation.rings_per_broadcast_query", rings(true));
        values.insert(
            "federation.publish_catchup",
            self.catchup.map_or(f64::NAN, |c| c as f64),
        );
        values.insert(
            "federation.modelled_ingest_per_s",
            records / (self.fed.ingest_makespan_ns().max(1) as f64 / 1e9),
        );
        layers::calibrate(self.fed.ring(0), values);
    }
}
