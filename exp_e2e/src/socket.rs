//! `socket`: the process-per-node deployment. Seven node processes (4
//! DLA nodes, auditor, blind TTP, depositor endpoint) behind one
//! `TcpNet`, over a `deploy::build_cluster` of ~256 records. One client
//! cycle STORE-deposits every trail item (`TcpNet::deposit`, one round
//! trip each) and then runs `deploy::run_workload`: session-shipped
//! deposits, then set intersection, union, sum, equality and ranking,
//! every hop crossing ROUTE → FWD → DELIVER between processes.
//!
//! Why: the only workload where `net::tcp` framing, writer threads and
//! inter-process hops carry the load.
//!
//! CPU times cover the coordinator process (client, `TcpNet` threads and
//! the centrally driven protocols); the node processes' forwarding work
//! shows in the wall-clock metrics only.

use crate::ledger::{self, Client};
use crate::run::{Ctx, Values, Workload};
use crate::{oracle, stats};
use dla_audit::cluster::DlaCluster;
use dla_audit::deploy::{build_cluster, fragments, run_workload, WorkloadSpec};
use dla_deploy::{ChildNode, PeerTable};
use dla_net::tcp::{TcpConfig, TcpNet};
use dla_net::{ChannelNet, NodeId, SimTime, VirtualClock};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

const RECORDS: usize = 256;
const TINY_RECORDS: usize = 16;
const PROTOCOLS: [&str; 5] = ["ssi", "union", "sum", "equality", "ranking"];

/// The node processes and the coordinator's transport. Dropping it
/// without an orderly [`Mesh::shutdown`] still stops and reaps every
/// child.
struct Mesh {
    children: Vec<ChildNode>,
    net: Option<TcpNet>,
}

impl Mesh {
    fn spawn(total: usize) -> Result<Mesh, String> {
        let bin = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut mesh = Mesh {
            children: Vec::new(),
            net: None,
        };
        for id in 0..total {
            let child =
                ChildNode::spawn(&bin, id, "bench", 1000 + id as u64).map_err(|e| e.to_string())?;
            mesh.children.push(child);
        }
        let table = PeerTable(mesh.children.iter().map(|c| Some(c.addr)).collect());
        for child in &mut mesh.children {
            child.send_peers(&table).map_err(|e| e.to_string())?;
        }
        let net = TcpNet::connect(
            &table.0,
            BTreeSet::new(),
            TcpConfig {
                timeout: SimTime::from_millis(10_000),
                ..TcpConfig::default()
            },
        )
        .map_err(|e| e.to_string())?;
        mesh.net = Some(net);
        Ok(mesh)
    }

    fn net(&self) -> &TcpNet {
        self.net.as_ref().expect("mesh is connected")
    }

    /// Orderly teardown: every node's farewell must match the report it
    /// prints on exit. Returns each node's stored-fragment count.
    fn shutdown(&mut self) -> Result<BTreeMap<usize, u64>, String> {
        let net = self.net.take().ok_or("mesh already shut down")?;
        let byes = net.shutdown();
        let mut stored = BTreeMap::new();
        for child in std::mem::take(&mut self.children) {
            let id = child.id;
            let report = child
                .finish(Duration::from_secs(10))
                .map_err(|e| e.to_string())?;
            let bye = byes
                .iter()
                .find(|b| b.id == id)
                .ok_or(format!("no farewell from node {id}"))?;
            oracle::same(&format!("node {id} farewell"), bye, &report)?;
            stored.insert(id, report.stored);
        }
        Ok(stored)
    }
}

impl Drop for Mesh {
    fn drop(&mut self) {
        if let Some(net) = self.net.take() {
            let _ = net.shutdown();
        }
        for child in &mut self.children {
            child.kill();
        }
    }
}

pub struct Socket {
    spec: WorkloadSpec,
    mesh: Mesh,
    mesh_spawn_s: f64,
    cluster: DlaCluster,
    items: Vec<(u64, usize, Vec<u8>)>,
    stores: BTreeMap<usize, u64>,
    bad_acks: usize,
    digests: Vec<(String, bool)>,
    protocol_ms: BTreeMap<&'static str, Vec<f64>>,
    shutdown: Option<Result<BTreeMap<usize, u64>, String>>,
}

impl Workload for Socket {
    const SETUPS: usize = 25;
    const TRACE_CYCLES: usize = 8;
    const RSS_CYCLES: usize = 10;

    fn setup(ctx: &Ctx) -> Result<Self, String> {
        let spec = WorkloadSpec {
            records: if ctx.tiny { TINY_RECORDS } else { RECORDS },
            seed: ctx.seed,
            ..WorkloadSpec::default()
        };
        let started = Instant::now();
        let mesh = Mesh::spawn(spec.network_size())?;
        let mesh_spawn_s = started.elapsed().as_secs_f64();
        let cluster = build_cluster(&spec).map_err(|e| e.to_string())?;
        let items = fragments(&cluster, spec.nodes);
        Ok(Socket {
            spec,
            mesh,
            mesh_spawn_s,
            cluster,
            items,
            stores: BTreeMap::new(),
            bad_acks: 0,
            digests: Vec::new(),
            protocol_ms: BTreeMap::new(),
            shutdown: None,
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
            ("processes", self.spec.network_size().to_string()),
            ("records", self.spec.records.to_string()),
        ]
    }

    fn cycle(&mut self, client: &Client, _index: usize) {
        let net = self.mesh.net();
        for (glsn, owner, item) in &self.items {
            let ack = client.op("deposit", || {
                client
                    .span("net.tcp", || net.deposit(NodeId(*owner), *glsn, item))
                    .map_err(|e| e.to_string())
            });
            let expected = self.stores.entry(*owner).or_insert(0);
            *expected += 1;
            if ack.is_some_and(|(count, _)| count != *expected) {
                self.bad_acks += 1;
            }
        }
        let (cluster, spec) = (&self.cluster, &self.spec);
        if let Some(outcome) = client.op("workload", || {
            client
                .span("deploy", || run_workload(cluster, net, spec))
                .map_err(|e| e.to_string())
        }) {
            for run in &outcome.runs {
                self.protocol_ms
                    .entry(run.protocol)
                    .or_default()
                    .push(run.millis);
            }
            self.digests
                .push((outcome.digest_hex(), outcome.integrity_ok()));
        }
    }

    fn post(&mut self, _client: &Client) {
        self.shutdown = Some(self.mesh.shutdown());
    }

    fn check(&self, client: &Client) {
        let reference = build_cluster(&self.spec).and_then(|cluster| {
            let net = ChannelNet::with_clock(
                self.spec.network_size(),
                SimTime::from_millis(10_000),
                Arc::new(VirtualClock::new()),
            );
            run_workload(&cluster, &net, &self.spec)
        });
        match reference {
            Ok(reference) => {
                let want = (reference.digest_hex(), reference.integrity_ok());
                for got in &self.digests {
                    if let Err(e) = oracle::same("socket workload digest vs ChannelNet", got, &want)
                    {
                        client.fail(e);
                    }
                }
            }
            Err(e) => client.fail(format!("ChannelNet reference run: {e}")),
        }
        if self.bad_acks > 0 {
            client.fail(format!(
                "{} STORE acks carried a wrong count",
                self.bad_acks
            ));
        }
        match &self.shutdown {
            Some(Ok(stored)) => {
                let stored: BTreeMap<usize, u64> = stored
                    .iter()
                    .filter(|(_, &n)| n > 0)
                    .map(|(&id, &n)| (id, n))
                    .collect();
                if let Err(e) = oracle::same("fragments stored per node", &stored, &self.stores) {
                    client.fail(e);
                }
            }
            Some(Err(e)) => client.fail(format!("mesh shutdown: {e}")),
            None => client.fail("mesh was not shut down".into()),
        }
    }

    fn answers(&self) -> Vec<String> {
        self.digests.iter().map(|d| format!("{d:?}")).collect()
    }

    fn phase(&self, client: &Client, loop_s: f64, values: &mut Values) {
        let stores = client.latencies(&["deposit"]).len();
        values.insert("deposits_per_s", stores as f64 / loop_s);
        let runs: Vec<f64> = self.protocol_ms.values().flatten().copied().collect();
        values.insert("queries_per_s", runs.len() as f64 / loop_s);
        values.insert("query_p50_ms", stats::median(&runs));
        values.insert("query_tail_ms", 0.0);
        values.insert("samples.query", runs.len() as f64);
    }

    fn layers(&self, client: &Client, values: &mut Values) {
        let spans = client.spans();
        let costs = client.costs();
        values.insert(
            "net.tcp_store_rtt_us",
            stats::median(&ledger::layer_ms_per_call(&spans, "net.tcp", &["deposit"])) * 1e3,
        );
        for (protocol, metric) in PROTOCOLS.iter().zip([
            "net.tcp_protocol_ms.ssi",
            "net.tcp_protocol_ms.union",
            "net.tcp_protocol_ms.sum",
            "net.tcp_protocol_ms.equality",
            "net.tcp_protocol_ms.ranking",
        ]) {
            let ms = self
                .protocol_ms
                .get(protocol)
                .map_or(0.0, |v| stats::median(v));
            values.insert(metric, ms);
        }
        values.insert("deploy.mesh_spawn_s", self.mesh_spawn_s);
        values.insert(
            "deploy.run_workload_ms",
            stats::median(&ledger::layer_ms_per_call(&spans, "deploy", &["workload"])),
        );
        let protocol_runs = self.protocol_ms.values().map(Vec::len).sum::<usize>() as f64;
        crate::layers::query_costs(&costs, &["workload"], protocol_runs, values);
        crate::layers::calibrate(&self.cluster, values);
    }
}
