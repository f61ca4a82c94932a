//! Node mode: `exp_e2e --id N --listen ADDR --role ROLE --key K` runs
//! one `dla-node` process of the socket workload's mesh, speaking the
//! launcher line protocol of `dla_deploy` (announce `LISTEN`, read the
//! `PEERS` table from stdin, serve until SHUTDOWN, print `REPORT`). The
//! benchmark spawns its own binary this way so it needs no second build.

use dla_deploy::{render_report, PeerTable};
use dla_net::tcp::{serve, NodeConfig};
use std::io::{self, BufRead, Write};
use std::net::TcpListener;
use std::process::ExitCode;

fn run(argv: &[String]) -> Result<(), String> {
    let mut id = None;
    let mut listen = "127.0.0.1:0".to_string();
    let mut role = "app".to_string();
    let mut key = 0u64;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--id" => id = Some(value.parse::<usize>().map_err(|e| format!("--id: {e}"))?),
            "--listen" => listen.clone_from(value),
            "--role" => role.clone_from(value),
            "--key" => key = value.parse().map_err(|e| format!("--key: {e}"))?,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let id = id.ok_or("--id is required")?;
    let io_err = |e: io::Error| e.to_string();
    let listener = TcpListener::bind(&listen).map_err(io_err)?;
    let addr = listener.local_addr().map_err(io_err)?;
    let mut out = io::stdout().lock();
    writeln!(out, "LISTEN {id} {addr}").map_err(io_err)?;
    out.flush().map_err(io_err)?;

    let mut line = String::new();
    io::stdin().lock().read_line(&mut line).map_err(io_err)?;
    let table = line
        .trim_end()
        .strip_prefix("PEERS ")
        .ok_or(format!("expected PEERS line, got {line:?}"))?;
    let peers = PeerTable::parse(table)?;
    if peers.0.get(id).copied().flatten() != Some(addr) {
        return Err(format!("peer table entry for node {id} is not {addr}"));
    }
    let report = serve(
        listener,
        NodeConfig {
            id,
            peers: peers.0,
            role,
            key,
        },
    )
    .map_err(io_err)?;
    writeln!(out, "{}", render_report(&report)).map_err(io_err)?;
    out.flush().map_err(io_err)
}

/// Entry point for node mode.
pub fn main(argv: &[String]) -> ExitCode {
    match run(argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("exp_e2e node: {message}");
            ExitCode::FAILURE
        }
    }
}
