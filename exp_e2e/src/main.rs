//! `exp_e2e`: the end-to-end DLA benchmark.
//!
//! One command runs one named workload of the canonical pipeline
//! (deposit → seal → standing deltas → ad-hoc queries and aggregates →
//! trail/root verification) as a closed loop with one client thread,
//! checks every answer against an oracle outside the timed region, and
//! prints its metrics as one JSON object on the last line of stdout:
//!
//! ```text
//! cargo run --release --manifest-path exp_e2e/Cargo.toml -- \
//!     --workload audit --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` the metrics are the end-to-end set (`metrics.rs`),
//! measured with telemetry off: set-up time (the median of several
//! setups spread over the run, so that it samples the host as long as
//! the cycles do), the median time of one client cycle, and peak
//! memory. Set-up and cycle times are process CPU time over every
//! thread, which the kernel keeps hypervisor steal out of: on a shared
//! 2-vCPU host, steal moved wall times by up to 2x between runs minutes
//! apart. CPU time, still slowed by neighbours contending for the same
//! cores, moved by up to 30%, so both are scaled to a nominal host speed
//! measured in the same run by a fixed reference chain of the
//! benchmark's own (`env::HostSpeed`); each run prints the factor and
//! the unscaled times. The wall-clock
//! view — throughput, median cycle latency, set-up wall time and the
//! steal share — is printed with every run and reported among the
//! per-layer metrics, as are the phase latencies (deposit, seal, query,
//! aggregate, verification, recovery).
//!
//! With `--trace 1` the run makes a fixed number of client cycles three
//! times on identically seeded systems — untraced, then with a
//! `dla_telemetry::Recorder` installed and spans recorded around every
//! layer call, then untraced again — checks that the traced pass gave
//! the untraced pass's answers, and reports the per-layer set: phase
//! metrics, op counts per operation, calibrated unit costs and the
//! wall-time ledger. The exit code is non-zero on any oracle mismatch or
//! failed durability check.
//!
//! When invoked as `exp_e2e --id N ...` the binary is a `dla-node`
//! process of the socket workload's mesh (see `node.rs`).

mod audit;
mod env;
mod federated;
mod ingest;
mod inputs;
mod layers;
mod ledger;
mod metrics;
mod node;
mod oracle;
mod run;
mod socket;
mod stats;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--id") {
        return node::main(&argv);
    }
    let args = match run::Args::parse(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("exp_e2e: {message}");
            eprintln!(
                "usage: exp_e2e --workload {{{}}} --seed N --seconds S --trace {{0|1}} [--tiny]",
                run::WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run::run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("exp_e2e: {message}");
            ExitCode::FAILURE
        }
    }
}
