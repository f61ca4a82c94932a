//! The runner shared by every workload: argument parsing, the
//! timed closed loop, the two-pass traced run, and the result line.

use crate::ledger::{self, Client};
use crate::metrics::{self, Set};
use crate::{env, stats};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["ingest", "audit", "federated", "socket"];

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace {0|1} [--tiny]`.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut tiny = false;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?.clone()),
                "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                    });
                }
                // Shrinks every workload to a size the self-tests can
                // run in seconds; never used for measurements.
                "--tiny" => tiny = true,
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload:?}"));
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            tiny,
        })
    }
}

/// What every workload sees.
pub struct Ctx {
    /// The workload seed: every input derives from it.
    pub seed: u64,
    /// Self-test sizing.
    pub tiny: bool,
    /// Private work directory under the working directory (journals,
    /// span dumps); removed when the run ends.
    pub workdir: PathBuf,
    setups: std::cell::Cell<u64>,
}

impl Ctx {
    /// A fresh directory under the work directory for one setup.
    pub fn fresh_dir(&self, label: &str) -> Result<PathBuf, String> {
        let n = self.setups.get();
        self.setups.set(n + 1);
        let dir = self.workdir.join(format!("{label}-{n}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

/// Metric values by registered name.
pub type Values = BTreeMap<&'static str, f64>;

/// One closed-loop workload.
pub trait Workload: Sized {
    /// Setups per `--trace 0` run; `setup_s` is their median. The first
    /// builds the system the loop drives; the rest are spread over the
    /// loop (see [`timed`]) and dropped.
    const SETUPS: usize;
    /// Client cycles per pass of a `--trace 1` run.
    const TRACE_CYCLES: usize;
    /// Client cycles after which `peak_rss_mib` is read.
    const RSS_CYCLES: usize;

    /// Builds the system under test: everything `setup_s` covers.
    fn setup(ctx: &Ctx) -> Result<Self, String>;

    /// Header fields describing the built system.
    fn header(&self) -> Vec<(&'static str, String)>;

    /// Runs client cycle number `index`.
    fn cycle(&mut self, client: &Client, index: usize);

    /// Client calls that follow the loop (verification, recovery).
    fn post(&mut self, _client: &Client) {}

    /// Checks every recorded answer against the oracle, reporting each
    /// mismatch through [`Client::fail`]. Runs outside the timed region.
    fn check(&self, client: &Client);

    /// Canonical renderings of every answer, for the traced/untraced
    /// equivalence check.
    fn answers(&self) -> Vec<String>;

    /// Phase metrics this workload measures in its own way (the
    /// runner derives the rest from call kinds).
    fn phase(&self, _client: &Client, _loop_s: f64, _values: &mut Values) {}

    /// Per-layer metrics from a traced pass.
    fn layers(&self, client: &Client, values: &mut Values);
}

/// Removes the work directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs the workload `args` names and prints its result. `Ok(false)`
/// means the run completed but an answer or check was wrong.
pub fn run(args: &Args) -> Result<bool, String> {
    let workdir = Path::new(".exp_e2e").join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&workdir).map_err(|e| format!("create {}: {e}", workdir.display()))?;
    let _cleanup = WorkDir(workdir.clone());
    let ctx = Ctx {
        seed: args.seed,
        tiny: args.tiny,
        workdir,
        setups: std::cell::Cell::new(0),
    };
    match args.workload.as_str() {
        "ingest" => drive::<crate::ingest::Ingest>(args, &ctx),
        "audit" => drive::<crate::audit::Audit>(args, &ctx),
        "federated" => drive::<crate::federated::Federated>(args, &ctx),
        "socket" => drive::<crate::socket::Socket>(args, &ctx),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn secs(started: Instant) -> f64 {
    started.elapsed().as_secs_f64()
}

/// One setup: the system, its wall seconds and its process CPU seconds.
fn setup_timed<W: Workload>(ctx: &Ctx) -> Result<(W, f64, f64), String> {
    let cpu = env::cpu_s();
    let started = Instant::now();
    let system = W::setup(ctx)?;
    Ok((system, secs(started), env::cpu_s() - cpu))
}

/// What one closed loop of client cycles measured.
struct Pass {
    cycle_ms: Vec<f64>,
    cycle_cpu_ms: Vec<f64>,
    loop_s: f64,
    cpu_s: f64,
    calls: usize,
    steal: f64,
    peak_rss_mib: f64,
}

/// Runs client cycles while `more(cycles done, loop seconds)` holds (at
/// least one), reading peak memory after `rss_cycles` cycles. After each
/// cycle `between(cycles done, loop seconds)` may do other work; its wall
/// and CPU time are kept out of the loop's.
fn run_loop<W: Workload>(
    system: &mut W,
    client: &Client,
    rss_cycles: usize,
    more: impl Fn(usize, f64) -> bool,
    mut between: impl FnMut(usize, f64),
) -> Pass {
    let steal_before = env::cpu_steal();
    let cpu_before = env::cpu_s();
    let started = Instant::now();
    let (mut aside_s, mut aside_cpu_s) = (0.0, 0.0);
    let mut cycle_ms = Vec::new();
    let mut cycle_cpu_ms = Vec::new();
    let mut peak_rss_mib = 0.0;
    while cycle_ms.is_empty() || more(cycle_ms.len(), secs(started) - aside_s) {
        let cycle_cpu = env::cpu_s();
        let cycle_started = Instant::now();
        system.cycle(client, cycle_ms.len());
        cycle_ms.push(cycle_started.elapsed().as_secs_f64() * 1e3);
        cycle_cpu_ms.push((env::cpu_s() - cycle_cpu) * 1e3);
        if cycle_ms.len() == rss_cycles {
            peak_rss_mib = env::peak_rss_mib();
        }
        let (aside, aside_cpu) = (Instant::now(), env::cpu_s());
        between(cycle_ms.len(), secs(started) - aside_s);
        aside_s += secs(aside);
        aside_cpu_s += env::cpu_s() - aside_cpu;
    }
    let loop_s = secs(started) - aside_s;
    let cpu_s = env::cpu_s() - cpu_before - aside_cpu_s;
    let steal_after = env::cpu_steal();
    Pass {
        cycle_ms,
        cycle_cpu_ms,
        loop_s,
        cpu_s,
        calls: client.samples().len(),
        steal: (steal_after.0 - steal_before.0) as f64
            / (steal_after.1 - steal_before.1).max(1) as f64,
        peak_rss_mib,
    }
}

/// The wall-clock view of a loop: throughput, median cycle, and the
/// CPU steal that moved both.
fn wall_phase(pass: &Pass, setup_wall_s: f64, values: &mut Values) {
    values.insert("ops_per_s", pass.calls as f64 / pass.loop_s);
    values.insert("cycle_p50_ms", stats::median(&pass.cycle_ms));
    values.insert("setup_wall_s", setup_wall_s);
    values.insert("host.cpu_steal_share", pass.steal);
}

/// Phase metrics every workload derives the same way from its calls.
fn common_phase(client: &Client, loop_s: f64, values: &mut Values) {
    let deposits = client.latencies(&["deposit", "seal_deposit"]);
    let queries = client.latencies(&["query"]);
    values.insert("deposit_p50_ms", stats::median(&deposits));
    values.insert("deposit_tail_ms", stats::tail(&deposits));
    values.insert(
        "seal_deposit_p50_ms",
        stats::median(&client.latencies(&["seal_deposit"])),
    );
    values.insert("queries_per_s", queries.len() as f64 / loop_s);
    values.insert("query_p50_ms", stats::median(&queries));
    values.insert("query_tail_ms", stats::tail(&queries));
    values.insert(
        "aggregate_p50_ms",
        stats::median(&client.latencies(&["aggregate"])),
    );
    values.insert(
        "verify_trail_ms",
        stats::median(&client.latencies(&["verify_trail"])),
    );
    values.insert(
        "verify_window_ms",
        stats::median(&client.latencies(&["verify_window"])),
    );
    values.insert(
        "recovery_s",
        stats::median(&client.latencies(&["recover"])) / 1e3,
    );
    values.insert("samples.deposit", deposits.len() as f64);
    values.insert("samples.query", queries.len() as f64);
}

/// Outcome counts: every client call is an attempt; every failure
/// message (an error, a wrong answer, a failed check) fails one.
fn tally(client: &Client) -> (usize, usize, Vec<String>) {
    let attempted = client.samples().len().max(1);
    let errors = client.errors();
    (attempted, errors.len().min(attempted), errors)
}

fn drive<W: Workload>(args: &Args, ctx: &Ctx) -> Result<bool, String> {
    if args.trace {
        traced::<W>(args, ctx)
    } else {
        timed::<W>(args, ctx)
    }
}

/// Set-up times of one `--trace 0` run.
struct Setups {
    wall: Vec<f64>,
    cpu: Vec<f64>,
    error: Option<String>,
}

impl Setups {
    /// Builds and drops a spare system, recording its times (or the
    /// first error).
    fn spare<W: Workload>(&mut self, ctx: &Ctx) {
        match setup_timed::<W>(ctx) {
            Ok((spare, wall, cpu)) => {
                drop(spare);
                self.wall.push(wall);
                self.cpu.push(cpu);
            }
            Err(e) => {
                self.error.get_or_insert(e);
            }
        }
    }
}

/// `--trace 0`: a setup, then client cycles for `--seconds` with the
/// other setups spread between them, then the post-loop calls and the
/// oracle check.
fn timed<W: Workload>(args: &Args, ctx: &Ctx) -> Result<bool, String> {
    let (mut system, wall, cpu) = setup_timed::<W>(ctx)?;
    let mut setups = Setups {
        wall: vec![wall],
        cpu: vec![cpu],
        error: None,
    };
    print_header(args, ctx, &system.header());

    // The loop runs for `--seconds` of cycle time, and at least
    // `RSS_CYCLES` cycles: peak memory is read once that fixed amount of
    // work is done, so it does not grow with how many deposits a faster
    // run fits in. The remaining setups run between cycles after that
    // reading (a second system alive beside the first would raise it),
    // setup k once k/SETUPS of the loop time has passed, so `setup_s`
    // samples the host over the whole run as `cycle_cpu_ms` does rather
    // than over the moment before the loop; setups still due when the
    // loop ends run after it.
    // The host's speed is sampled after every cycle (`HostSpeed`).
    let client = Client::untraced();
    let rss_cycles = if ctx.tiny { 1 } else { W::RSS_CYCLES };
    let mut host = env::HostSpeed::new();
    let pass = run_loop(
        &mut system,
        &client,
        rss_cycles,
        |n, s| n < rss_cycles || s < args.seconds,
        |n, s| {
            host.sample();
            let due = ((s / args.seconds * W::SETUPS as f64) as usize).min(W::SETUPS - 1);
            if n >= rss_cycles && setups.cpu.len() <= due && setups.error.is_none() {
                setups.spare::<W>(ctx);
            }
        },
    );
    while setups.cpu.len() < W::SETUPS && setups.error.is_none() {
        setups.spare::<W>(ctx);
    }
    if let Some(e) = setups.error {
        return Err(e);
    }
    let (setup_wall, setup_cpu) = (setups.wall, setups.cpu);
    system.post(&client);
    system.check(&client);

    let mut phase = Values::new();
    common_phase(&client, pass.loop_s, &mut phase);
    wall_phase(&pass, stats::median(&setup_wall), &mut phase);
    system.phase(&client, pass.loop_s, &mut phase);
    let (attempted, failed, errors) = tally(&client);
    phase.insert("failed_op_ratio", failed as f64 / attempted as f64);
    print_table(&phase);

    let cycles = pass.cycle_ms.len();
    let setup_s = stats::median(&setup_cpu);
    let cycle_cpu_ms = stats::median(&pass.cycle_cpu_ms);
    let speed = host.factor();
    let mut values = Values::new();
    values.insert("setup_s", setup_s * speed);
    values.insert("cycle_cpu_ms", cycle_cpu_ms * speed);
    values.insert("peak_rss_mib", pass.peak_rss_mib);
    println!(
        "# {cycles} cycles, {} client calls in {:.3} s wall, {:.3} s cpu; {} setups",
        pass.calls,
        pass.loop_s,
        pass.cpu_s,
        setup_cpu.len(),
    );
    println!(
        "# host speed factor {speed:.4} (reference chain {:.4} ms, nominal {:.4} ms); \
         unscaled setup_s {setup_s:.6} s, cycle_cpu_ms {cycle_cpu_ms:.4} ms",
        host.median_s() * 1e3,
        env::HostSpeed::NOMINAL_S * 1e3,
    );
    Ok(finish(Set::EndToEnd, &values, attempted, failed, &errors))
}

/// `--trace 1`: the same fixed number of cycles on three identically
/// seeded systems: untraced, traced, untraced.
fn traced<W: Workload>(args: &Args, ctx: &Ctx) -> Result<bool, String> {
    let cycles = if ctx.tiny { 1 } else { W::TRACE_CYCLES };
    // Returns the system, its loop, its set-up wall time, and the wall
    // and CPU seconds of the loop plus the post-loop calls.
    let pass = |client: &Client| -> Result<(W, Pass, f64, f64, f64), String> {
        let (mut system, setup_wall, _) = setup_timed::<W>(ctx)?;
        let cpu = env::cpu_s();
        let started = Instant::now();
        let pass = run_loop(&mut system, client, 0, |n, _| n < cycles, |_, _| {});
        system.post(client);
        Ok((system, pass, setup_wall, secs(started), env::cpu_s() - cpu))
    };

    // Untraced, traced, untraced again: the overhead ratio compares the
    // traced pass's CPU time with the mean of the two untraced passes
    // around it, so neither warm-up in the first pass nor steal reads as
    // overhead.
    let plain = Client::untraced();
    let (untraced_system, plain_pass, setup_wall, _, plain_cpu_s) = pass(&plain)?;
    print_header(args, ctx, &untraced_system.header());
    let mut values = Values::new();
    common_phase(&plain, plain_pass.loop_s, &mut values);
    wall_phase(&plain_pass, setup_wall, &mut values);
    untraced_system.phase(&plain, plain_pass.loop_s, &mut values);
    untraced_system.check(&plain);
    let plain_answers = untraced_system.answers();
    drop(untraced_system);

    let client = Client::traced();
    let (traced_system, _, _, traced_wall_s, traced_cpu_s) = pass(&client)?;
    traced_system.check(&client);
    if traced_system.answers() != plain_answers {
        client.fail("traced pass answers differ from the untraced pass".into());
    }
    client.stop_telemetry();
    let replain = Client::untraced();
    let (_, _, _, _, replain_cpu_s) = pass(&replain)?;
    traced_system.layers(&client, &mut values);

    // The ledger: self time per layer span over the traced pass's wall.
    let spans = client.spans();
    let selfs = ledger::self_times(&spans);
    let wall_ns = traced_wall_s * 1e9;
    let mut accounted = 0.0;
    for (layer, metric) in metrics::LEDGER_LAYERS {
        let ns = selfs.get(layer).copied().unwrap_or(0) as f64;
        accounted += ns;
        values.insert(metric, ns / wall_ns);
    }
    values.insert("ledger.unaccounted_share", 1.0 - accounted / wall_ns);
    values.insert(
        "telemetry.overhead_ratio",
        2.0 * traced_cpu_s / (plain_cpu_s + replain_cpu_s),
    );
    crate::layers::pass_totals(&client.costs(), &mut values);
    // Modexp count × calibrated unit cost at the group size, over wall.
    values.insert(
        "crypto.est_share",
        values["counts.modexp"]
            * values
                .get("bigint.modexp_ns_est_group")
                .copied()
                .unwrap_or(0.0)
            / wall_ns,
    );
    let span_file = ctx
        .workdir
        .parent()
        .expect("work directory has a parent")
        .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    std::fs::write(&span_file, ledger::spans_jsonl(&spans))
        .map_err(|e| format!("write {}: {e}", span_file.display()))?;
    println!("# spans written to {}", span_file.display());

    let (mut attempted, mut failed, mut errors) = (0, 0, Vec::new());
    for c in [&plain, &client, &replain] {
        let (a, f, e) = tally(c);
        attempted += a;
        failed += f;
        errors.extend(e);
    }
    values.insert("failed_op_ratio", failed as f64 / attempted as f64);
    Ok(finish(Set::PerLayer, &values, attempted, failed, &errors))
}

fn print_header(args: &Args, ctx: &Ctx, extra: &[(&'static str, String)]) {
    let mut line = format!(
        "# header: workload={} seed={} seconds={} trace={} git_sha={} nproc={} load=closed-loop,1-client",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        env::git_sha(),
        env::nproc(),
    );
    let _ = write!(line, " workdir_fs=\"{}\"", env::filesystem_of(&ctx.workdir));
    for (k, v) in extra {
        let _ = write!(line, " {k}={v}");
    }
    println!("{line}");
}

fn print_table(values: &Values) {
    for (name, value) in values {
        let m = metrics::lookup(name);
        println!(
            "# {name:<24} {value:>14.4} {:<6} ({} is better)",
            m.unit, m.better
        );
    }
}

/// Prints the result line — exactly the registered metrics of `set`,
/// registered metrics the workload did not measure reading 0 — and
/// returns whether the run was correct.
fn finish(set: Set, values: &Values, attempted: usize, failed: usize, errors: &[String]) -> bool {
    for e in errors.iter().take(20) {
        eprintln!("exp_e2e: FAILED {e}");
    }
    for name in values.keys() {
        assert!(
            metrics::lookup(name).set == set,
            "{name} measured in the wrong set"
        );
    }
    let body: Vec<String> = metrics::of(set)
        .map(|m| {
            let v = values.get(m.name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    let correct = failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    correct
}
