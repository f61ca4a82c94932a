//! Property-based tests for `dla-bigint`: ring axioms, division
//! identities, base conversions, modular-arithmetic laws, and the
//! differential oracles for the exponentiation/residue hot paths
//! (windowed vs binary vs schoolbook modexp; Jacobi vs Euler).

use dla_bigint::jacobi::jacobi;
use dla_bigint::montgomery::MontgomeryContext;
use dla_bigint::{modular, prime, Ubig};
use proptest::prelude::*;
use rand::SeedableRng;

/// The safe primes of the fixed 256- and 512-bit commutative-cipher
/// domains (`dla_crypto::pohlig_hellman::SAFE_PRIME_{256,512}_HEX`).
fn domain_primes() -> [Ubig; 2] {
    [
        "a9eeab19c760f86c872f1c471c52157db42be1aefe645387366720155ee9a6d3",
        "d44ee432e3b498a302a56b9c3ac65bd13be10b6f1eb58a5990f86654a378253954208985ab6f45682d604624d5da8e9f5257e87a12fe06c053605f7c872d24ab",
    ]
    .map(|hex| Ubig::from_hex(hex).expect("valid constant"))
}

/// Euler-criterion oracle for an odd prime `p`:
/// `a^((p−1)/2) mod p ∈ {0, 1, p−1} ↦ {0, 1, −1}`.
fn euler_oracle(a: &Ubig, p: &Ubig) -> i8 {
    let q = (p - &Ubig::one()) >> 1;
    let r = modular::modexp(&(a % p), &q, p);
    if r.is_zero() {
        0
    } else if r.is_one() {
        1
    } else {
        -1
    }
}

/// Strategy: an arbitrary Ubig of up to `limbs` limbs.
fn ubig(limbs: usize) -> impl Strategy<Value = Ubig> {
    prop::collection::vec(any::<u64>(), 0..=limbs).prop_map(Ubig::from_limbs)
}

fn ubig_nonzero(limbs: usize) -> impl Strategy<Value = Ubig> {
    ubig(limbs).prop_map(|v| if v.is_zero() { Ubig::one() } else { v })
}

proptest! {
    #[test]
    fn add_commutative(a in ubig(6), b in ubig(6)) {
        prop_assert_eq!(&a + &b, &b + &a);
    }

    #[test]
    fn add_associative(a in ubig(5), b in ubig(5), c in ubig(5)) {
        prop_assert_eq!(&(&a + &b) + &c, &a + &(&b + &c));
    }

    #[test]
    fn mul_commutative(a in ubig(5), b in ubig(5)) {
        prop_assert_eq!(&a * &b, &b * &a);
    }

    #[test]
    fn mul_associative(a in ubig(3), b in ubig(3), c in ubig(3)) {
        prop_assert_eq!(&(&a * &b) * &c, &a * &(&b * &c));
    }

    #[test]
    fn mul_distributes_over_add(a in ubig(4), b in ubig(4), c in ubig(4)) {
        prop_assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c));
    }

    #[test]
    fn add_then_sub_round_trips(a in ubig(6), b in ubig(6)) {
        prop_assert_eq!(&(&a + &b) - &b, a);
    }

    #[test]
    fn div_rem_identity(a in ubig(8), b in ubig_nonzero(4)) {
        let (q, r) = a.div_rem(&b);
        prop_assert!(r < b);
        prop_assert_eq!(&(&q * &b) + &r, a);
    }

    // `div_rem` dispatches on the divisor's limb count: exactly one
    // limb takes the short-division path, two or more the Knuth
    // Algorithm D path (whose caller-checked preconditions are `a > b`
    // and `b.limbs.len() >= 2`). Pin each path separately with the
    // multiply-back identity.

    #[test]
    fn div_rem_single_limb_divisor_path(a in ubig(8), d in 1u64..=u64::MAX) {
        let b = Ubig::from_u64(d);
        let (q, r) = a.div_rem(&b);
        prop_assert!(r < b);
        prop_assert_eq!(&(&q * &b) + &r, a);
    }

    #[test]
    fn div_rem_knuth_path_preconditions_hold(
        lo in ubig(3),
        b in prop::collection::vec(any::<u64>(), 2..=4)
            .prop_map(|mut v| {
                // Force a true multi-limb divisor: nonzero top limb.
                let last = v.last_mut().expect("len >= 2");
                if *last == 0 { *last = 1; }
                Ubig::from_limbs(v)
            }),
    ) {
        // Construct a dividend strictly above the divisor so the Knuth
        // branch (not the trivial Less/Equal early-outs) is exercised.
        let a = &(&b << 17) + &lo;
        prop_assert!(a > b);
        prop_assert!(b.bit_len() > 64, "divisor must span at least two limbs");
        let (q, r) = a.div_rem(&b);
        prop_assert!(r < b);
        prop_assert!(!q.is_zero());
        prop_assert_eq!(&(&q * &b) + &r, a);
    }

    #[test]
    fn decimal_round_trip(a in ubig(6)) {
        let s = a.to_string();
        prop_assert_eq!(s.parse::<Ubig>().unwrap(), a);
    }

    #[test]
    fn hex_round_trip(a in ubig(6)) {
        prop_assert_eq!(Ubig::from_hex(&a.to_hex()).unwrap(), a);
    }

    #[test]
    fn bytes_round_trip(a in ubig(6)) {
        prop_assert_eq!(Ubig::from_bytes_be(&a.to_bytes_be()), a);
    }

    #[test]
    fn shift_is_pow2_mul(a in ubig(4), n in 0usize..200) {
        prop_assert_eq!(&a << n, &a * &(Ubig::one() << n));
    }

    #[test]
    fn shr_discards_low_bits(a in ubig(4), n in 0usize..200) {
        let (expect, _) = a.div_rem(&(Ubig::one() << n));
        prop_assert_eq!(&a >> n, expect);
    }

    #[test]
    fn cmp_agrees_with_sub(a in ubig(5), b in ubig(5)) {
        match a.cmp(&b) {
            std::cmp::Ordering::Less => prop_assert!(a.checked_sub(&b).is_none()),
            _ => prop_assert!(a.checked_sub(&b).is_some()),
        }
    }

    #[test]
    fn modexp_product_law(a in ubig(2), e1 in 0u64..200, e2 in 0u64..200, m in ubig_nonzero(2)) {
        // a^(e1+e2) = a^e1 * a^e2 (mod m)
        let lhs = modular::modexp(&a, &Ubig::from_u64(e1 + e2), &m);
        let rhs = modular::modmul(
            &modular::modexp(&a, &Ubig::from_u64(e1), &m),
            &modular::modexp(&a, &Ubig::from_u64(e2), &m),
            &m,
        );
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn modinv_is_inverse(a in ubig_nonzero(3), m in ubig_nonzero(3)) {
        if let Some(inv) = modular::modinv(&a, &m) {
            if !m.is_one() {
                prop_assert_eq!(modular::modmul(&a, &inv, &m), Ubig::one() % &m);
            }
        } else {
            prop_assert!(!modular::gcd(&a, &m).is_one());
        }
    }

    #[test]
    fn gcd_divides_both(a in ubig_nonzero(4), b in ubig_nonzero(4)) {
        let g = modular::gcd(&a, &b);
        prop_assert!((&a % &g).is_zero());
        prop_assert!((&b % &g).is_zero());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Differential oracle for the tentpole: the sliding-window
    /// Montgomery exponentiation agrees with the bit-at-a-time
    /// Montgomery baseline and the division-based schoolbook ladder on
    /// every window width 1..=6, across 65–512-bit odd moduli.
    #[test]
    fn windowed_binary_schoolbook_agree(
        base in ubig(8),
        exp in ubig(4),
        bits in 65usize..=512,
        seed in any::<u64>(),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let m = {
            let mut m = Ubig::random_bits(&mut rng, bits);
            m = &m + &(Ubig::one() << (bits - 1));
            if m.is_even() { m = &m + &Ubig::one(); }
            m
        };
        let ctx = MontgomeryContext::new(&m).expect("modulus is odd");
        let reference = modular::modexp_schoolbook(&base, &exp, &m);
        for window in 1..=6 {
            prop_assert_eq!(&ctx.modexp_windowed(&base, &exp, window), &reference, "window={}", window);
        }
    }

    /// Edge exponents 0, 1, 2 and p−1 (Fermat) against a random odd
    /// prime modulus, for every window width.
    #[test]
    fn windowed_edge_exponents_match(
        base in ubig(6),
        bits in 65usize..=160,
        seed in any::<u64>(),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let p = prime::gen_prime(bits, &mut rng);
        let ctx = MontgomeryContext::new(&p).expect("primes > 2 are odd");
        let edges = [
            Ubig::zero(),
            Ubig::one(),
            Ubig::two(),
            &p - &Ubig::one(),
        ];
        for exp in &edges {
            let reference = modular::modexp_schoolbook(&base, exp, &p);
            for window in 1..=6 {
                prop_assert_eq!(
                    &ctx.modexp_windowed(&base, exp, window),
                    &reference,
                    "window={} exp={}", window, exp
                );
            }
        }
    }

    /// The Jacobi symbol equals the Euler criterion on random odd
    /// primes — the identity the `encode` hot path rests on.
    #[test]
    fn jacobi_matches_euler_criterion(
        bits in 64usize..=192,
        seed in any::<u64>(),
        numerators in prop::collection::vec(any::<u64>(), 1..6),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let p = prime::gen_prime(bits, &mut rng);
        let q = (&p - &Ubig::one()) >> 1;
        for _ in 0..3 {
            let a = Ubig::random_below(&mut rng, &p);
            let euler = modular::modexp(&a, &q, &p);
            let expect: i8 = if euler.is_zero() || a.is_zero() {
                0
            } else if euler.is_one() {
                1
            } else {
                -1
            };
            prop_assert_eq!(jacobi(&a, &p), expect);
        }
        // Unreduced numerators reduce first.
        for n in numerators {
            let a = Ubig::from_u64(n);
            let shifted = &a + &(&p << 2);
            prop_assert_eq!(jacobi(&a, &p), jacobi(&shifted, &p));
        }
    }

    /// Jacobi ≡ the Euler criterion on the two fixed protocol domains,
    /// for numerators of 1–8 limbs, ones at or above `p` (reduced
    /// first), multiples of `p` (symbol 0), and in every case the
    /// one-limb and 72-bit (8-byte message) numerators that take the
    /// one-division shortcut.
    #[test]
    fn jacobi_matches_euler_on_the_domain_primes(
        a in prop::collection::vec(any::<u64>(), 1..=8).prop_map(Ubig::from_limbs),
        k in 0u64..4,
    ) {
        let one_limb = Ubig::from_u64(a.limbs().first().copied().unwrap_or(0));
        let short = &a % &(Ubig::one() << 72);
        for p in domain_primes() {
            for a in [&a, &one_limb, &short] {
                let expect = euler_oracle(a, &p);
                prop_assert_eq!(jacobi(a, &p), expect);
                let shifted = a + &(&p * &Ubig::from_u64(k));
                prop_assert_eq!(jacobi(&shifted, &p), expect, "a + {}p", k);
            }
            let multiple = &p * &Ubig::from_u64(k);
            prop_assert_eq!(jacobi(&multiple, &p), 0, "{}p", k);
        }
    }

    /// For composite odd moduli the symbol is multiplicative in both
    /// arguments, `(ab/n) = (a/n)(b/n)` and `(a/mn) = (a/m)(a/n)`, and
    /// `(a/1) = 1` for every `a`.
    #[test]
    fn jacobi_is_multiplicative_on_composite_moduli(
        a in ubig(4),
        b in ubig(4),
        m in ubig_nonzero(3),
        n in ubig_nonzero(3),
    ) {
        let odd = |v: Ubig| if v.is_even() { v + Ubig::one() } else { v };
        let (m, n) = (odd(m), odd(n));
        let mn = &m * &n;
        prop_assert_eq!(jacobi(&(&a * &b), &n), jacobi(&a, &n) * jacobi(&b, &n));
        prop_assert_eq!(jacobi(&a, &mn), jacobi(&a, &m) * jacobi(&a, &n));
        prop_assert_eq!(jacobi(&a, &Ubig::one()), 1);
    }

    /// Batch exponentiation is element-wise identical to one-at-a-time.
    #[test]
    fn modexp_batch_matches_pointwise(
        bases in prop::collection::vec(ubig(5), 0..8),
        exp in ubig(3),
        seed in any::<u64>(),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let p = prime::gen_prime(96, &mut rng);
        let ctx = MontgomeryContext::new(&p).expect("primes > 2 are odd");
        let batched = ctx.modexp_batch(&bases, &exp);
        let pointwise: Vec<Ubig> = bases.iter().map(|b| ctx.modexp(b, &exp)).collect();
        prop_assert_eq!(batched, pointwise);
    }

    /// The accelerated fixed-width kernel path agrees with the generic
    /// PR 4 sliding-window oracle on the same inputs — the differential
    /// that keeps wire transcripts byte-identical.
    #[test]
    fn accel_modexp_matches_generic_oracle(
        base in ubig(8),
        exp in ubig(8),
        bits in 65usize..=512,
        seed in any::<u64>(),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let m = {
            let mut m = Ubig::random_bits(&mut rng, bits);
            m = &m + &(Ubig::one() << (bits - 1));
            if m.is_even() { m = &m + &Ubig::one(); }
            m
        };
        let ctx = MontgomeryContext::new(&m).expect("modulus is odd");
        prop_assert_eq!(ctx.modexp(&base, &exp), ctx.modexp_generic(&base, &exp));
    }

    /// `FixedBase::pow` ≡ `modexp` across 65–512-bit odd moduli, both
    /// inside the table's capacity and through the chunked fallback
    /// (the capacity divisor deliberately undersizes some tables).
    #[test]
    fn fixed_base_matches_modexp(
        base in ubig(8),
        exp in ubig(8),
        bits in 65usize..=512,
        cap_divisor in 1usize..=4,
        seed in any::<u64>(),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let m = {
            let mut m = Ubig::random_bits(&mut rng, bits);
            m = &m + &(Ubig::one() << (bits - 1));
            if m.is_even() { m = &m + &Ubig::one(); }
            m
        };
        let ctx = MontgomeryContext::new(&m).expect("modulus is odd");
        let fb = dla_bigint::FixedBase::new(&ctx, &base, bits / cap_divisor);
        prop_assert_eq!(fb.pow(&exp), ctx.modexp(&base, &exp));
    }

    /// `multi_exp` ≡ the product of independent ladders, across term
    /// counts that exercise both the Straus and Pippenger schedules.
    #[test]
    fn multi_exp_matches_product_of_ladders(
        k in 0usize..=80,
        bits in 65usize..=256,
        exp_limbs in 1usize..=3,
        seed in any::<u64>(),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let p = prime::gen_prime(bits, &mut rng);
        let ctx = MontgomeryContext::new(&p).expect("primes > 2 are odd");
        let terms: Vec<(Ubig, Ubig)> = (0..k)
            .map(|_| (
                Ubig::random_below(&mut rng, &p),
                Ubig::random_bits(&mut rng, exp_limbs * 64),
            ))
            .collect();
        let product = terms.iter().fold(&Ubig::one() % &p, |acc, (b, e)| {
            modular::modmul(&acc, &ctx.modexp(b, e), &p)
        });
        prop_assert_eq!(dla_bigint::multi_exp(&ctx, &terms), product);
    }

    /// Edge exponents 0, 1, p−1 (the group order) and p−1 ± 1 agree
    /// between the fixed-base table, the accelerated kernel, and the
    /// schoolbook reference.
    #[test]
    fn fixed_base_and_accel_edge_exponents_match(
        base in ubig(6),
        bits in 65usize..=160,
        seed in any::<u64>(),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let p = prime::gen_prime(bits, &mut rng);
        let ctx = MontgomeryContext::new(&p).expect("primes > 2 are odd");
        let order = &p - &Ubig::one();
        let fb = dla_bigint::FixedBase::new(&ctx, &base, bits);
        let edges = [
            Ubig::zero(),
            Ubig::one(),
            &order - &Ubig::one(),
            order.clone(),
            &order + &Ubig::one(),
        ];
        for exp in &edges {
            let reference = modular::modexp_schoolbook(&base, exp, &p);
            prop_assert_eq!(&ctx.modexp(&base, exp), &reference, "accel exp={}", exp);
            prop_assert_eq!(&fb.pow(exp), &reference, "fixed-base exp={}", exp);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn f61_field_axioms(x in any::<u64>(), y in any::<u64>(), z in any::<u64>()) {
        use dla_bigint::F61;
        let (a, b, c) = (F61::new(x), F61::new(y), F61::new(z));
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!((a + b) + c, a + (b + c));
        prop_assert_eq!(a * b, b * a);
        prop_assert_eq!((a * b) * c, a * (b * c));
        prop_assert_eq!(a * (b + c), a * b + a * c);
        prop_assert_eq!(a - a, F61::ZERO);
        if !a.is_zero() {
            prop_assert_eq!(a * a.inverse().unwrap(), F61::ONE);
        }
    }
}

/// The zero-divisor error path, pinned outside the property blocks: no
/// strategy ever generates a zero divisor, so assert the guard
/// directly.
#[test]
#[should_panic(expected = "division by zero")]
fn div_rem_zero_divisor_panics() {
    let _ = Ubig::from_u64(42).div_rem(&Ubig::zero());
}

/// The QR pad search of the commutative-cipher message encoding
/// (`CommutativeDomain::encode`): `message ‖ pad` for the first pad
/// byte whose candidate is neither 0 nor 1 and has Jacobi symbol 1.
/// Pinned on the executor's 8-byte glsn-set and 24-byte equality-join
/// item shapes, for both fixed domains.
#[test]
fn qr_pad_search_matches_pinned_encodings() {
    let mut join_item = 12345u64.to_be_bytes().to_vec();
    join_item.extend_from_slice(&[0x11; 16]);
    let messages: [&[u8]; 6] = [
        &12345u64.to_be_bytes(),
        &0xdead_beef_0102_0304u64.to_be_bytes(),
        b"glsn-007",
        &join_item,
        b"equality-join-item-00001",
        b"equality-join-item-00002",
    ];
    let pinned: [[&str; 6]; 2] = [
        [
            "303901",
            "deadbeef0102030400",
            "676c736e2d30303701",
            "30391111111111111111111111111111111100",
            "657175616c6974792d6a6f696e2d6974656d2d303030303103",
            "657175616c6974792d6a6f696e2d6974656d2d303030303200",
        ],
        [
            "303900",
            "deadbeef0102030401",
            "676c736e2d30303700",
            "30391111111111111111111111111111111103",
            "657175616c6974792d6a6f696e2d6974656d2d303030303100",
            "657175616c6974792d6a6f696e2d6974656d2d303030303202",
        ],
    ];
    for (p, expected) in domain_primes().iter().zip(&pinned) {
        for (msg, hex) in messages.iter().zip(expected) {
            let base = Ubig::from_bytes_be(msg) << 8;
            let encoded = (0..=255u64)
                .map(|pad| &base + &Ubig::from_u64(pad))
                .find(|c| !c.is_zero() && !c.is_one() && jacobi(c, p) == 1)
                .expect("a residue pad exists");
            assert_eq!(encoded.to_hex(), *hex, "p: {} bits", p.bit_len());
            assert_eq!(euler_oracle(&encoded, p), 1);
        }
    }
}
