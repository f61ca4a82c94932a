//! Experiment P10: the crypto hot path. Two parts:
//!
//! * **Production SSI run** — one seeded secure set intersection
//!   (256-bit domain, reveal pass) on the cipher path every protocol
//!   uses, measuring wall-clock and telemetry op counts. The answer must
//!   be exactly the shared prefix, and the message and modexp counts
//!   must match the protocol's closed forms (`n² + n + 1` messages;
//!   `n²·s` layer applications plus `n·k` reveal decryptions).
//! * **Kernel ladder** — the same travelling-set shape (every party's
//!   encoded set under its own key exponent) pushed through three
//!   kernels: `accel` (the cipher's `pow_batch`: known-order exponent
//!   reduction plus the fixed-width Montgomery kernel), `generic`
//!   (per-element sliding-window Montgomery on the generic slice
//!   kernel) and `schoolbook` (per-element division-based ladder). All
//!   three must produce byte-identical outputs; `accel` must be at
//!   least 2× `generic` in modexp/s, and `generic` must strictly beat
//!   `schoolbook` — in `--quick` and full mode alike.
//! * **Message encoding** — `CommutativeDomain::encode` (the QR pad
//!   search every protocol runs before its first layer) over the two
//!   item shapes the query executor sends: 8-byte glsns and 24-byte
//!   equality-join items (glsn ‖ 16-byte value digest), reported as
//!   `encode_ns_per_item` next to the accel kernel's cost per modexp.
//!   `ci.sh` gates the 24-byte encode below one accel modexp.
//!
//! Writes `BENCH_crypto_hotpath.json`.
//!
//! Run with: `cargo run -p dla-bench --bin exp_crypto_hotpath --release`
//! (pass `--quick` for the CI-sized configuration).

use dla_bench::render_table;
use dla_bigint::modular::modexp_schoolbook;
use dla_bigint::montgomery::MontgomeryContext;
use dla_bigint::Ubig;
use dla_crypto::pohlig_hellman::{CommutativeDomain, PhKey};
use dla_crypto::sha256::{self, Sha256};
use dla_mpc::set_intersection::SsiSession;
use dla_net::topology::Ring;
use dla_net::{NetConfig, NodeId, Session, SimLink, SimNet};
use dla_telemetry::Recorder;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// One kernel rung of the ladder.
struct KernelRow {
    kernel: &'static str,
    bases: usize,
    elapsed_ms: f64,
    digest: String,
}

impl KernelRow {
    fn modexp_per_sec(&self) -> f64 {
        self.bases as f64 / (self.elapsed_ms / 1000.0)
    }
}

fn sets(n: usize, size: usize) -> Vec<Vec<Vec<u8>>> {
    (0..n)
        .map(|party| {
            (0..size)
                .map(|i| {
                    if i < size / 2 {
                        format!("shared-{i}").into_bytes()
                    } else {
                        format!("private-{party}-{i}").into_bytes()
                    }
                })
                .collect()
        })
        .collect()
}

/// Best wall-clock of `iters` runs of `f`, with the last run's output.
fn best_of<T>(iters: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best_ms = f64::INFINITY;
    let mut out = None;
    for _ in 0..iters {
        let started = Instant::now();
        let value = f();
        best_ms = best_ms.min(started.elapsed().as_secs_f64() * 1000.0);
        out = Some(value);
    }
    (best_ms, out.expect("at least one iteration"))
}

/// `items` consecutive glsns starting at the synthetic workload's first
/// glsn, as the executor encodes them: 8-byte big-endian glsns, or
/// 24-byte equality-join items `glsn ‖ SHA-256(value)[..16]`.
fn executor_items(item_bytes: usize, items: usize) -> Vec<Vec<u8>> {
    (0..items as u64)
        .map(|i| {
            let glsn = 0x139a_ef78 + i;
            let mut item = glsn.to_be_bytes().to_vec();
            if item_bytes == 24 {
                item.extend_from_slice(&sha256::digest(format!("value-{i}").as_bytes())[..16]);
            }
            item
        })
        .collect()
}

fn digest(outputs: &[Ubig]) -> String {
    let mut h = Sha256::new();
    for v in outputs {
        let bytes = v.to_bytes_be();
        h.update(&(bytes.len() as u64).to_be_bytes());
        h.update(&bytes);
    }
    sha256::to_hex(&h.finalize())
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (n, set_size, iters) = if quick { (3, 8, 15) } else { (4, 16, 15) };
    let inputs = sets(n, set_size);
    let domain = CommutativeDomain::fixed_256();

    // Part 1: the production SSI run.
    let (ssi_ms, (answer, costs)) = best_of(iters, || {
        let recorder = Recorder::new();
        let mut net = SimNet::new(n, NetConfig::ideal());
        let session_id = net.open_session();
        let link = SimLink::new(&mut net);
        let ring = Ring::canonical(n);
        let mut rng = StdRng::seed_from_u64(1);
        let outcome = {
            let _install = recorder.install();
            SsiSession::new(Session::new(&link, session_id), &ring, &domain, NodeId(0))
                .reveal(true)
                .run(&inputs, &mut rng)
                .expect("ssi runs")
        };
        let answer = outcome.common_items.expect("reveal requested");
        (answer, recorder.take().total_cost())
    });
    let shared = set_size / 2;
    let mut expected: Vec<Vec<u8>> = inputs[0][..shared].to_vec();
    expected.sort();
    assert_eq!(
        answer, expected,
        "SSI must reveal exactly the shared prefix"
    );
    let expected_messages = (n * n + n + 1) as u64;
    assert_eq!(costs.msgs_sent, expected_messages, "SSI message count");
    let expected_modexp = (n * n * set_size + n * shared) as u64;
    assert_eq!(costs.modexp, expected_modexp, "SSI modexp count");

    // Part 2: the kernel ladder over the same travelling-set shape.
    let mut rng = StdRng::seed_from_u64(2);
    let order = domain.modulus() - &Ubig::one();
    let exponents: Vec<Ubig> = (0..n)
        .map(|_| loop {
            let e = Ubig::random_range(&mut rng, &Ubig::from_u64(3), &order);
            if PhKey::from_exponent(&domain, e.clone()).is_ok() {
                break e;
            }
        })
        .collect();
    let party_sets: Vec<Vec<Ubig>> = inputs
        .iter()
        .map(|set| {
            set.iter()
                .map(|item| domain.encode(item).expect("items fit the domain"))
                .collect()
        })
        .collect();
    let bases = n * set_size;
    let ctx = MontgomeryContext::new(domain.modulus()).expect("safe primes are odd");
    let per_element = |f: &dyn Fn(&Ubig, &Ubig) -> Ubig| -> Vec<Ubig> {
        party_sets
            .iter()
            .zip(&exponents)
            .flat_map(|(set, e)| set.iter().map(move |b| f(b, e)))
            .collect()
    };
    let ladder: [(&'static str, &dyn Fn() -> Vec<Ubig>); 3] = [
        ("accel", &|| {
            party_sets
                .iter()
                .zip(&exponents)
                .flat_map(|(set, e)| domain.pow_batch(set, e))
                .collect()
        }),
        ("generic", &|| per_element(&|b, e| ctx.modexp_generic(b, e))),
        ("schoolbook", &|| {
            per_element(&|b, e| modexp_schoolbook(b, e, domain.modulus()))
        }),
    ];
    let kernels: Vec<KernelRow> = ladder
        .iter()
        .map(|&(kernel, run)| {
            let (elapsed_ms, out) = best_of(iters, run);
            assert_eq!(out.len(), bases);
            KernelRow {
                kernel,
                bases,
                elapsed_ms,
                digest: digest(&out),
            }
        })
        .collect();
    let [accel, generic, schoolbook] = &kernels[..] else {
        unreachable!("three rungs");
    };
    for row in [generic, schoolbook] {
        assert_eq!(
            row.digest, accel.digest,
            "{} outputs diverged from accel",
            row.kernel
        );
    }
    let accel_vs_generic = accel.modexp_per_sec() / generic.modexp_per_sec();
    assert!(
        accel_vs_generic >= 2.0,
        "accel must be >= 2x generic in modexp/s at 256 bits (got {accel_vs_generic:.2}x)"
    );
    assert!(
        generic.modexp_per_sec() > schoolbook.modexp_per_sec(),
        "generic modexp throughput ({:.1}/s) must strictly beat schoolbook ({:.1}/s)",
        generic.modexp_per_sec(),
        schoolbook.modexp_per_sec()
    );

    // Part 3: message encoding on the executor's item shapes.
    let encode_items = if quick { 1000 } else { 4000 };
    let encodes: Vec<(usize, f64)> = [8usize, 24]
        .iter()
        .map(|&item_bytes| {
            let items = executor_items(item_bytes, encode_items);
            let (ms, encoded) = best_of(iters, || {
                items
                    .iter()
                    .map(|item| domain.encode(item).expect("items fit the domain"))
                    .collect::<Vec<Ubig>>()
            });
            assert_eq!(encoded.len(), encode_items);
            (item_bytes, ms * 1e6 / encode_items as f64)
        })
        .collect();
    let accel_ns_per_modexp = 1e9 / accel.modexp_per_sec();

    let mode = if quick { ", quick" } else { "" };
    println!(
        "{}",
        render_table(
            &format!("P10 - PRODUCTION SSI ({n}-party, {set_size}-element sets, 256-bit{mode})"),
            &["ms", "answer", "messages", "modexp", "mont_steps"],
            &[vec![
                format!("{ssi_ms:.2}"),
                answer.len().to_string(),
                costs.msgs_sent.to_string(),
                costs.modexp.to_string(),
                costs.mont_mul_steps.to_string(),
            ]]
        )
    );
    let rows: Vec<Vec<String>> = kernels
        .iter()
        .map(|k| {
            vec![
                k.kernel.to_string(),
                k.bases.to_string(),
                format!("{:.3}", k.elapsed_ms),
                format!("{:.0}", k.modexp_per_sec()),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &format!("P10 - KERNEL LADDER ({bases} bases, {n} key exponents, 256-bit{mode})"),
            &["kernel", "bases", "ms", "modexp/s"],
            &rows
        )
    );
    println!("accel is {accel_vs_generic:.2}x generic; identical outputs on every rung.");
    let rows: Vec<Vec<String>> = encodes
        .iter()
        .map(|&(item_bytes, ns)| {
            vec![
                item_bytes.to_string(),
                encode_items.to_string(),
                format!("{ns:.0}"),
                format!("{:.2}", ns / accel_ns_per_modexp),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &format!("P10 - MESSAGE ENCODING (QR pad search, 256-bit{mode})"),
            &[
                "item_bytes",
                "items",
                "encode_ns_per_item",
                "x accel modexp"
            ],
            &rows
        )
    );

    let entries: Vec<String> = kernels
        .iter()
        .map(|k| {
            format!(
                concat!(
                    "    {{\"kernel\": \"{}\", \"bases\": {}, \"elapsed_ms\": {:.3}, ",
                    "\"modexp_per_sec\": {:.1}, \"digest\": \"{}\"}}"
                ),
                k.kernel,
                k.bases,
                k.elapsed_ms,
                k.modexp_per_sec(),
                k.digest
            )
        })
        .collect();
    let encode_entries: Vec<String> = encodes
        .iter()
        .map(|&(item_bytes, ns)| {
            format!(
                "    {{\"item_bytes\": {item_bytes}, \"items\": {encode_items}, \"encode_ns_per_item\": {ns:.1}}}"
            )
        })
        .collect();
    let json = format!(
        concat!(
            "{{\n  \"experiment\": \"crypto_hotpath\",\n  \"quick\": {},\n",
            "  \"parties\": {},\n  \"set_size\": {},\n  \"modulus_bits\": 256,\n",
            "  \"ssi\": {{\"elapsed_ms\": {:.3}, \"answer_items\": {}, \"messages\": {}, ",
            "\"modexp\": {}, \"mont_mul_steps\": {}}},\n",
            "  \"speedup_accel_vs_generic\": {:.3},\n",
            "  \"kernels\": [\n{}\n  ],\n",
            "  \"accel_ns_per_modexp\": {:.1},\n",
            "  \"encode\": [\n{}\n  ]\n}}\n"
        ),
        quick,
        n,
        set_size,
        ssi_ms,
        answer.len(),
        costs.msgs_sent,
        costs.modexp,
        costs.mont_mul_steps,
        accel_vs_generic,
        entries.join(",\n"),
        accel_ns_per_modexp,
        encode_entries.join(",\n")
    );
    std::fs::write("BENCH_crypto_hotpath.json", &json).expect("write BENCH_crypto_hotpath.json");
    println!("\nwrote BENCH_crypto_hotpath.json");
}
