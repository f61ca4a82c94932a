//! `ingest`: durable deposits. A 4-node paper-partition cluster with
//! its journal on (the code's own flush policy: `sync_data` on every
//! append), epoch length 64 and two standing queries registered before
//! the first deposit. One client cycle is four 16-record `log_records`
//! batches — one epoch, so one batch per cycle seals. After the loop:
//! a whole-trail `check_trail`, a late standing registration over the
//! sealed history, then drop and reopen from the journal.
//!
//! Why: the journal, accumulator folds and seal/standing work carry the
//! load; the ad-hoc query path does nothing.

use crate::inputs::RecordStream;
use crate::ledger::{self, Client};
use crate::run::{Ctx, Values, Workload};
use crate::{env, oracle, stats};
use dla_audit::cluster::{AppUser, ClusterConfig, DlaCluster};
use dla_audit::integrity::check_trail;
use dla_audit::standing::StandingQueryId;
use dla_bigint::Ubig;
use dla_logstore::fragment::Partition;
use dla_logstore::model::{Glsn, LogRecord};
use dla_logstore::schema::Schema;
use std::collections::BTreeSet;
use std::path::PathBuf;

const EPOCH_LENGTH: u64 = 64;
const BATCH: usize = 16;
const BATCHES_PER_CYCLE: usize = 4;
const STANDING: [&str; 2] = ["protocol = 'UDP'", "c1 > 50 AND id = 'U1'"];
/// Registered after the loop, so it catches up over sealed history.
const LATE_STANDING: &str = "c2 > 500.00";
const DEPOSIT: &[&str] = &["deposit", "seal_deposit"];

/// What the cluster held just before it was dropped.
struct Acknowledged {
    deposits: Vec<(Glsn, Ubig)>,
    sealed: BTreeSet<u64>,
    standing: Vec<(&'static str, Option<Vec<Glsn>>)>,
}

pub struct Ingest {
    schema: Schema,
    config: ClusterConfig,
    dir: PathBuf,
    cluster: Option<DlaCluster>,
    user: AppUser,
    standing: Vec<(&'static str, StandingQueryId)>,
    stream: RecordStream,
    deposited: Vec<(Glsn, LogRecord)>,
    answers: Vec<String>,
    journal_bytes_start: u64,
    journal_bytes_loop: u64,
    syscw_start: u64,
    syscw_loop: u64,
    catchup_epochs: usize,
    acknowledged: Option<Acknowledged>,
}

impl Ingest {
    fn cluster(&self) -> &DlaCluster {
        self.cluster.as_ref().expect("cluster is open")
    }

    fn sealed_epochs(&self) -> usize {
        self.cluster().checkpoint_chain().len()
    }
}

impl Workload for Ingest {
    const SETUPS: usize = 60;
    const TRACE_CYCLES: usize = 25;
    const RSS_CYCLES: usize = 20;

    fn setup(ctx: &Ctx) -> Result<Self, String> {
        let dir = ctx.fresh_dir("ingest-journal")?;
        let schema = Schema::paper_example();
        let config = ClusterConfig::new(4, schema.clone())
            .with_partition(Partition::paper_example(&schema))
            .with_seed(ctx.seed)
            .with_epoch_length(EPOCH_LENGTH)
            .with_journal_dir(&dir);
        let mut cluster = DlaCluster::new(config.clone()).map_err(|e| e.to_string())?;
        let user = cluster.register_user("ingest").map_err(|e| e.to_string())?;
        let mut standing = Vec::new();
        for criteria in STANDING {
            let id = cluster
                .register_standing(criteria)
                .map_err(|e| e.to_string())?;
            standing.push((criteria, id));
        }
        Ok(Ingest {
            schema,
            config,
            journal_bytes_start: env::dir_bytes(&dir),
            dir,
            cluster: Some(cluster),
            user,
            standing,
            stream: RecordStream::new(ctx.seed, 5),
            deposited: Vec::new(),
            answers: Vec::new(),
            journal_bytes_loop: 0,
            syscw_start: env::write_syscalls(),
            syscw_loop: 0,
            catchup_epochs: 0,
            acknowledged: None,
        })
    }

    fn header(&self) -> Vec<(&'static str, String)> {
        let c = self.cluster();
        vec![
            ("group_bits", c.domain().modulus().bit_len().to_string()),
            (
                "acc_bits",
                c.accumulator_params().modulus().bit_len().to_string(),
            ),
            ("journal", "on,sync_data-per-append".into()),
            (
                "journal_fs",
                format!("\"{}\"", env::filesystem_of(&self.dir)),
            ),
        ]
    }

    fn cycle(&mut self, client: &Client, _index: usize) {
        for _ in 0..BATCHES_PER_CYCLE {
            let batch = self.stream.take(BATCH);
            let sealed_before = self.sealed_epochs();
            let cluster = self.cluster.as_mut().expect("cluster is open");
            let user = &self.user;
            let glsns = client.op("deposit", || {
                client
                    .span("cluster", || cluster.log_records(user, &batch))
                    .map_err(|e| e.to_string())
            });
            if self.sealed_epochs() > sealed_before {
                client.relabel_last("seal_deposit");
            }
            if let Some(glsns) = glsns {
                self.answers.push(format!("{glsns:?}"));
                self.deposited.extend(glsns.into_iter().zip(batch));
            }
        }
    }

    fn post(&mut self, client: &Client) {
        self.journal_bytes_loop = env::dir_bytes(&self.dir);
        self.syscw_loop = env::write_syscalls();
        // One whole-trail check: its cost grows faster than the trail,
        // and the trail grows with how fast the disk flushes, so repeats
        // would make the run's length follow the host's disk.
        let cluster = self.cluster();
        let verdict = client.op("verify_trail", || {
            Ok(client.span("integrity", || check_trail(cluster)))
        });
        if let Some(v) = verdict {
            if !(v.ok && v.chain_ok) {
                client.fail(format!("check_trail failed before reopen: {v:?}"));
            }
        }

        self.catchup_epochs = self.sealed_epochs();
        let cluster = self.cluster.as_mut().expect("cluster is open");
        if let Some(id) = client.op("standing_catchup", || {
            client
                .span("standing", || cluster.register_standing(LATE_STANDING))
                .map_err(|e| e.to_string())
        }) {
            self.standing.push((LATE_STANDING, id));
        }

        // Everything acknowledged so far must survive the reopen.
        let cluster = self.cluster();
        let deposits = self
            .deposited
            .iter()
            .filter_map(|(g, _)| cluster.deposit(*g).map(|d| (*g, d.clone())))
            .collect();
        let sealed = cluster
            .epoch_stats()
            .filter(|s| s.sealed && s.deposits > 0)
            .flat_map(|s| s.glsn_lo.0..=s.glsn_hi.0)
            .collect();
        let standing = self
            .standing
            .iter()
            .map(|(criteria, id)| (*criteria, cluster.standing_matches(*id)))
            .collect();
        self.acknowledged = Some(Acknowledged {
            deposits,
            sealed,
            standing,
        });

        drop(self.cluster.take());
        let config = self.config.clone();
        self.cluster = client.op("recover", || {
            client
                .span("cluster", || DlaCluster::new(config))
                .map_err(|e| e.to_string())
        });
    }

    fn check(&self, client: &Client) {
        let Some(ack) = &self.acknowledged else {
            return client.fail("post-loop phase did not run".into());
        };
        if ack.deposits.len() != self.deposited.len() {
            client.fail(format!(
                "{} acknowledged glsns but only {} deposits on record before reopen",
                self.deposited.len(),
                ack.deposits.len()
            ));
        }
        // Standing subscriptions against the clear-text evaluation of
        // the records in sealed epochs.
        let sealed_records = || {
            self.deposited
                .iter()
                .filter(|(g, _)| ack.sealed.contains(&g.0))
                .map(|(g, r)| (g.0, r))
        };
        for (criteria, got) in &ack.standing {
            let got: Option<Vec<u64>> = got.as_ref().map(|g| g.iter().map(|g| g.0).collect());
            let outcome =
                oracle::matching(&self.schema, criteria, sealed_records()).and_then(|want| {
                    oracle::same_set(
                        &format!("standing {criteria}"),
                        &got.unwrap_or_default(),
                        &want,
                    )
                });
            if let Err(e) = outcome {
                client.fail(e);
            }
        }

        // Durability: every acknowledged deposit and origin signature
        // is back after the reopen, and the trail verifies.
        let Some(reopened) = &self.cluster else {
            return client.fail("cluster did not reopen from its journal".into());
        };
        let logged: BTreeSet<Glsn> = reopened.logged_glsns().into_iter().collect();
        let mut missing = 0;
        let mut wrong = 0;
        let mut unsigned = 0;
        for (glsn, deposit) in &ack.deposits {
            if !logged.contains(glsn) {
                missing += 1;
            } else if reopened.deposit(*glsn) != Some(deposit) {
                wrong += 1;
            } else if !matches!(reopened.verify_origin(*glsn), Ok(true)) {
                unsigned += 1;
            }
        }
        if missing + wrong + unsigned > 0 {
            client.fail(format!(
                "after reopen: {missing} acknowledged glsns missing, {wrong} deposits differ, \
                 {unsigned} origin signatures fail"
            ));
        }
        let verdict = check_trail(reopened);
        if !(verdict.ok && verdict.chain_ok) {
            client.fail(format!("check_trail failed after reopen: {verdict:?}"));
        }
    }

    fn answers(&self) -> Vec<String> {
        let mut out = self.answers.clone();
        if let Some(ack) = &self.acknowledged {
            out.extend(ack.standing.iter().map(|s| format!("{s:?}")));
        }
        out
    }

    fn phase(&self, _client: &Client, loop_s: f64, values: &mut Values) {
        values.insert("deposits_per_s", self.deposited.len() as f64 / loop_s);
    }

    fn layers(&self, client: &Client, values: &mut Values) {
        let costs = client.costs();
        let spans = client.spans();
        let records = self.deposited.len() as f64;
        let cluster_ms =
            |kinds: &[&str]| stats::median(&ledger::layer_ms_per_call(&spans, "cluster", kinds));
        values.insert("cluster.log_records_ms", cluster_ms(DEPOSIT));
        values.insert(
            "cluster.seal_extra_ms",
            cluster_ms(&["seal_deposit"]) - cluster_ms(&["deposit"]),
        );
        values.insert(
            "logstore.journal_bytes_per_deposit",
            (self.journal_bytes_loop - self.journal_bytes_start) as f64 / records,
        );
        values.insert(
            "logstore.journal_writes_per_deposit",
            (self.syscw_loop - self.syscw_start) as f64 / records,
        );
        values.insert(
            "logstore.journal_append_us_est",
            env::journal_append_us(&self.dir).unwrap_or_else(|e| {
                client.fail(format!("journal calibration: {e}"));
                0.0
            }),
        );
        values.insert(
            "logstore.partials_materialized",
            ledger::per(&costs, DEPOSIT, 1.0, |c| c.partials_materialized),
        );
        crate::layers::deposit_costs(&costs, DEPOSIT, records, values);
        crate::layers::verify_costs(&costs, &["verify_trail"], values);
        values.insert(
            "integrity.check_trail_ms",
            stats::median(&ledger::layer_ms_per_call(
                &spans,
                "integrity",
                &["verify_trail"],
            )),
        );
        values.insert(
            "standing.deltas",
            ledger::per(&costs, DEPOSIT, 1.0, |c| c.standing_deltas),
        );
        values.insert(
            "standing.catchup_ms_per_epoch",
            stats::median(&client.latencies(&["standing_catchup"]))
                / self.catchup_epochs.max(1) as f64,
        );
        if let Some(cluster) = &self.cluster {
            crate::layers::calibrate(cluster, values);
        }
    }
}
