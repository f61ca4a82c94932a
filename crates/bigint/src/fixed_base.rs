//! Fixed-base exponentiation tables.
//!
//! Several DLA hot paths raise *one* base to many different exponents:
//! the accumulator generator `x₀` absorbs every deposit of a trail
//! (§4.1), trail verification re-derives `x₀^{∏eᵢ}`, and batched
//! checkpoint verification evaluates `x₀^{Σ rⱼEⱼ}`. A sliding-window
//! ladder spends ~`bits` squarings per power because it rebuilds the
//! power-of-two chain of the base every time; for a base known in
//! advance that chain can be built **once**.
//!
//! [`FixedBase`] stores the radix-`2^w` decomposition table
//! `rows[i][v] = base^(v·2^{w·i})` in Montgomery form. A power then
//! costs one table lookup per non-zero `w`-bit digit of the exponent —
//! **zero squarings** for any exponent within the table's capacity —
//! plus the two domain conversions. Above capacity the evaluator falls
//! back to chunking: Horner's rule over capacity-sized chunks of the
//! exponent, top chunk first, with `C` squarings of the running power
//! between chunks — so correctness never depends on sizing the table
//! right, and an oversized exponent costs no extra memory.
//!
//! Cost accounting: each constructed table records one
//! `CostKind::FixedBaseTableBuild` plus the `MontMulStep`s the build
//! actually performed; each power records `CostKind::ModExp` and its
//! own (much smaller) `MontMulStep` count, so `BENCH_cost_profile.json`
//! can show the amortisation explicitly.

use crate::montgomery::MontgomeryContext;
use crate::Ubig;

/// Precomputed radix-`2^w` powers of one base modulo one odd modulus.
///
/// Build once with [`FixedBase::new`], then evaluate powers with
/// [`FixedBase::pow`] / [`FixedBase::pow_batch`]. Results are
/// bit-identical to [`MontgomeryContext::modexp`] on the same inputs
/// (the proptest differential suite pins this).
#[derive(Clone, Debug)]
pub struct FixedBase {
    ctx: MontgomeryContext,
    base: Ubig,
    /// Digit width `w` in bits.
    window: usize,
    /// `rows[i][v-1] = base^(v · 2^{w·i})` in Montgomery form,
    /// `v ∈ 1..2^w`.
    rows: Vec<Vec<Vec<u64>>>,
    /// Exponent bits the table covers without falling back to
    /// chunking: `w · rows.len()`.
    capacity_bits: usize,
}

/// Digit width for a given capacity: small tables for small exponent
/// ranges, wider digits once the build amortises. The build costs
/// `(2^w − 2 + w)` muls per `w` covered bits, lookups cost `1/w` muls
/// per bit — `w = 5` only repays its build for very large tables.
fn digit_width(capacity_bits: usize) -> usize {
    match capacity_bits {
        0..=64 => 3,
        65..=2048 => 4,
        _ => 5,
    }
}

impl FixedBase {
    /// Builds the table for `base` mod the modulus of `ctx`, sized for
    /// exponents up to `capacity_bits` bits. Larger exponents still
    /// evaluate correctly via the chunked fallback; they just pay
    /// squarings for the bits beyond capacity.
    #[must_use]
    pub fn new(ctx: &MontgomeryContext, base: &Ubig, capacity_bits: usize) -> Self {
        let capacity_bits = capacity_bits.max(1);
        let w = digit_width(capacity_bits);
        let digits = capacity_bits.div_ceil(w);
        let mut kern = ctx.kernel();
        let mut steps = 1u64; // to_mont
        let mut cur = kern.to_mont(ctx, base);

        let mut rows = Vec::with_capacity(digits);
        for _ in 0..digits {
            // Row entries v = 1..2^w: repeated multiplication by cur.
            let mut row = Vec::with_capacity((1usize << w) - 1);
            row.push(cur.clone());
            for v in 2..(1usize << w) {
                let mut next = row[v - 2].clone();
                kern.mul_assign(ctx, &mut next, &cur);
                steps += 1;
                row.push(next);
            }
            rows.push(row);
            // cur ← cur^(2^w): the base for the next digit position.
            for _ in 0..w {
                kern.sqr_assign(ctx, &mut cur);
                steps += 1;
            }
        }

        dla_telemetry::record(dla_telemetry::CostKind::FixedBaseTableBuild, 1);
        dla_telemetry::record(dla_telemetry::CostKind::MontMulStep, steps);
        FixedBase {
            ctx: ctx.clone(),
            base: base.clone(),
            window: w,
            rows,
            capacity_bits: digits * w,
        }
    }

    /// The base the table was built for.
    #[must_use]
    pub fn base(&self) -> &Ubig {
        &self.base
    }

    /// Exponent bits covered without the chunked fallback.
    #[must_use]
    pub fn capacity_bits(&self) -> usize {
        self.capacity_bits
    }

    /// `base^exp mod n`, bit-identical to `ctx.modexp(base, exp)`.
    #[must_use]
    pub fn pow(&self, exp: &Ubig) -> Ubig {
        self.pow_batch(std::slice::from_ref(exp))
            .pop()
            .expect("one")
    }

    /// `base^exp mod n` for every exponent, sharing one kernel handle.
    #[must_use]
    pub fn pow_batch(&self, exps: &[Ubig]) -> Vec<Ubig> {
        if exps.is_empty() {
            return Vec::new();
        }
        dla_telemetry::record(dla_telemetry::CostKind::ModExp, exps.len() as u64);
        let mut kern = self.ctx.kernel();
        let mut total_steps = 0u64;
        let out = exps
            .iter()
            .map(|exp| {
                let (r, steps) = self.pow_inner(exp, &mut kern);
                total_steps += steps;
                r
            })
            .collect();
        dla_telemetry::record(dla_telemetry::CostKind::MontMulStep, total_steps);
        out
    }

    /// Evaluates one exponent by Horner's rule over capacity-sized
    /// chunks, top chunk first: every chunk is pure table lookups, and
    /// between chunks the running power (kept in Montgomery form) is
    /// raised to `2^capacity` by squaring. Exponents within capacity
    /// are one chunk and take no squarings; larger ones need no copy of
    /// the exponent and no memory beyond the accumulator.
    fn pow_inner(&self, exp: &Ubig, kern: &mut crate::montgomery::Kernel) -> (Ubig, u64) {
        let modulus = self.ctx.modulus();
        if exp.is_zero() {
            return (Ubig::one() % &modulus, 0);
        }
        let mut steps = 0u64;
        let w = self.window;
        let cap = self.capacity_bits;
        let mut acc: Option<Vec<u64>> = None;
        for chunk in (0..exp.bit_len().div_ceil(cap)).rev() {
            if let Some(a) = &mut acc {
                for _ in 0..cap {
                    kern.sqr_assign(&self.ctx, a);
                    steps += 1;
                }
            }
            for (i, row) in self.rows.iter().enumerate() {
                let offset = chunk * cap + i * w;
                let v = (0..w)
                    .filter(|&b| exp.bit(offset + b))
                    .fold(0usize, |v, b| v | 1 << b);
                if v == 0 {
                    continue;
                }
                match &mut acc {
                    None => acc = Some(row[v - 1].clone()),
                    Some(a) => {
                        kern.mul_assign(&self.ctx, a, &row[v - 1]);
                        steps += 1;
                    }
                }
            }
        }

        let mut acc = acc.expect("non-zero exponent has a non-zero digit");
        kern.redc_assign(&self.ctx, &mut acc);
        steps += 1;
        (Ubig::from_limbs(acc), steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(99)
    }

    #[test]
    fn pow_matches_modexp_within_capacity() {
        let mut rng = rng();
        for bits in [65usize, 256, 512] {
            let mut n = Ubig::random_bits(&mut rng, bits);
            if n.is_even() {
                n = n + Ubig::one();
            }
            let ctx = MontgomeryContext::new(&n).unwrap();
            let base = Ubig::random_below(&mut rng, &n);
            let fb = FixedBase::new(&ctx, &base, bits);
            for _ in 0..8 {
                let exp = Ubig::random_bits(&mut rng, bits - 1);
                assert_eq!(fb.pow(&exp), ctx.modexp(&base, &exp), "bits={bits}");
            }
        }
    }

    #[test]
    fn pow_matches_modexp_beyond_capacity() {
        let mut rng = rng();
        let n = (Ubig::one() << 255) - Ubig::from_u64(19);
        let ctx = MontgomeryContext::new(&n).unwrap();
        let base = Ubig::random_below(&mut rng, &n);
        // Deliberately tiny capacity: everything overflows into chunks.
        let fb = FixedBase::new(&ctx, &base, 64);
        for exp_bits in [65usize, 200, 300, 1000] {
            let exp = Ubig::random_bits(&mut rng, exp_bits);
            assert_eq!(fb.pow(&exp), ctx.modexp(&base, &exp), "exp_bits={exp_bits}");
        }
        // Hundreds of chunks, and chunks whose digits are all zero.
        let long = Ubig::random_bits(&mut rng, 200 * fb.capacity_bits() + 17);
        assert_eq!(fb.pow(&long), ctx.modexp(&base, &long), "200+ chunks");
        let sparse = (Ubig::one() << (5 * fb.capacity_bits() + 3)) + Ubig::from_u64(5);
        assert_eq!(fb.pow(&sparse), ctx.modexp(&base, &sparse), "zero chunks");
    }

    #[test]
    fn edge_exponents() {
        let n = (Ubig::one() << 89) - Ubig::one();
        let ctx = MontgomeryContext::new(&n).unwrap();
        let base = Ubig::from_u64(123_456);
        let fb = FixedBase::new(&ctx, &base, 89);
        assert_eq!(fb.pow(&Ubig::zero()), Ubig::one());
        assert_eq!(fb.pow(&Ubig::one()), base);
        assert_eq!(
            fb.pow(&Ubig::from_u64(2)),
            ctx.modexp(&base, &Ubig::from_u64(2))
        );
        let exp = &n - &Ubig::one();
        assert_eq!(fb.pow(&exp), Ubig::one(), "Fermat");
    }

    #[test]
    fn zero_base() {
        let n = Ubig::from_u64(1_000_003);
        let ctx = MontgomeryContext::new(&n).unwrap();
        let fb = FixedBase::new(&ctx, &Ubig::zero(), 64);
        assert_eq!(fb.pow(&Ubig::from_u64(7)), Ubig::zero());
        assert_eq!(fb.pow(&Ubig::zero()), Ubig::one());
    }

    #[test]
    fn batch_matches_serial_and_fewer_steps_than_ladder() {
        let mut rng = rng();
        let n = (Ubig::one() << 255) - Ubig::from_u64(19);
        let ctx = MontgomeryContext::new(&n).unwrap();
        let base = Ubig::random_below(&mut rng, &n);
        let exps: Vec<Ubig> = (0..6).map(|_| Ubig::random_bits(&mut rng, 254)).collect();

        let capture = |f: &dyn Fn() -> Vec<Ubig>| {
            let recorder = dla_telemetry::Recorder::new();
            let out = {
                let _install = recorder.install();
                f()
            };
            (out, recorder.take().total_cost())
        };
        let (fb_out, fb_cost) = capture(&|| {
            let fb = FixedBase::new(&ctx, &base, 256);
            fb.pow_batch(&exps)
        });
        let (ladder_out, ladder_cost) =
            capture(&|| exps.iter().map(|e| ctx.modexp(&base, e)).collect());
        assert_eq!(fb_out, ladder_out);
        assert_eq!(fb_cost.fixed_base_builds, 1);
        assert_eq!(fb_cost.modexp, ladder_cost.modexp);
        assert!(
            fb_cost.mont_mul_steps < ladder_cost.mont_mul_steps,
            "table build + lookups ({}) must beat {} ladder steps",
            fb_cost.mont_mul_steps,
            ladder_cost.mont_mul_steps
        );
    }
}
