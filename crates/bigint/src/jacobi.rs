//! The Jacobi symbol `(a/n)` by the binary algorithm.
//!
//! The commutative-cipher message encoding probes candidate values for
//! quadratic residuosity mod a safe prime `p` (see
//! `dla_crypto::pohlig_hellman::CommutativeDomain::encode`). The Euler
//! criterion answers that with a full exponent-`(p−1)/2` modexp —
//! hundreds of Montgomery multiplications *per pad-byte probe*. For a
//! prime modulus the Jacobi symbol gives the identical answer in
//! O(bits²) word operations: `(a/p) = 1 ⇔ a` is a quadratic residue
//! mod `p` (for `a` coprime to `p`), at roughly the cost of a single
//! gcd.
//!
//! The implementation is the binary algorithm over two limb buffers
//! sized to the modulus, filled once per call: strip factors of two
//! from `a` by shifting in place (flipping the sign when
//! `n ≡ ±3 mod 8`), swap so that `a ≥ n` (flipping when both are
//! `≡ 3 mod 4`), subtract `n` from `a` in place, repeat. No step
//! allocates; moduli up to 512 bits keep both buffers on the stack.
//! Once both operands fit in 128 bits the loop finishes on native
//! integers; when `a` is much shorter than `n` (an 8-byte message is a
//! 72-bit candidate against a 256-bit prime) one reciprocity swap and
//! one division `n mod a` hand the symbol to the native loop at once.

use crate::Ubig;

/// Modulus limb count up to which both working buffers live on the
/// stack (512 bits: every domain the protocols use).
const STACK_LIMBS: usize = 8;

/// Computes the Jacobi symbol `(a/n)` for odd `n ≥ 1`: `1`, `-1`, or
/// `0` when `gcd(a, n) ≠ 1`.
///
/// For an odd *prime* `n` this equals the Legendre symbol, so
/// `jacobi(a, p) == 1` iff `a` is a quadratic residue mod `p` (and `0`
/// iff `p | a`) — the drop-in replacement for an Euler-criterion
/// modexp.
///
/// # Panics
///
/// Panics if `n` is even or zero.
///
/// # Examples
///
/// ```
/// use dla_bigint::{jacobi::jacobi, modular, Ubig};
///
/// let p = Ubig::from_u64(1_000_000_007);
/// let a = Ubig::from_u64(34);
/// let sq = modular::modmul(&a, &a, &p);
/// assert_eq!(jacobi(&sq, &p), 1); // squares are residues
/// assert_eq!(jacobi(&Ubig::zero(), &p), 0);
/// ```
#[must_use]
pub fn jacobi(a: &Ubig, n: &Ubig) -> i8 {
    assert!(
        !n.is_zero() && !n.is_even(),
        "jacobi: modulus must be odd and positive"
    );
    // A numerator wider than the modulus is reduced once, so that both
    // operands fit buffers sized to `n`; a narrower or equal-width one
    // is reduced by the subtraction loop itself.
    let reduced;
    let a = if a.limbs().len() > n.limbs().len() {
        reduced = a % n;
        reduced.limbs()
    } else {
        a.limbs()
    };
    let n = n.limbs();
    let len = n.len();
    let mut stack = [0u64; 2 * STACK_LIMBS];
    let mut heap = Vec::new();
    let buf = if len <= STACK_LIMBS {
        &mut stack[..2 * len]
    } else {
        heap.resize(2 * len, 0);
        &mut heap[..]
    };
    let (x, y) = buf.split_at_mut(len);
    x[..a.len()].copy_from_slice(a);
    y.copy_from_slice(n);
    binary(x, a.len(), y, len)
}

/// The binary loop over `a` and odd `n`, both held in place in
/// equal-sized buffers with active (normalized) lengths `alen` and
/// `nlen`.
fn binary<'b>(mut a: &'b mut [u64], mut alen: usize, mut n: &'b mut [u64], mut nlen: usize) -> i8 {
    let mut t = 1i8;
    loop {
        if alen <= 2 {
            let short = to_u128(&a[..alen]);
            if nlen <= 2 {
                return t * jacobi_u128(short, to_u128(&n[..nlen]));
            }
            // `a` much shorter than `n`: one division by `a` finishes
            // the symbol natively. (`n` is never that short while `a`
            // is long: `n` only takes values `a` had past this check.)
            if short.leading_zeros() >= SHORT_ROOM {
                return t * short_numerator(short, &n[..nlen]);
            }
        }
        // Strip factors of two; each one contributes (2/n), which is
        // -1 exactly when n ≡ 3 or 5 (mod 8).
        let tz = trailing_zeros(&a[..alen]);
        if tz > 0 {
            shr_in_place(&mut a[..alen], tz);
            alen = active_len(a, alen);
            if tz % 2 == 1 && matches!(n[0] & 7, 3 | 5) {
                t = -t;
            }
            continue;
        }
        // Both odd. Quadratic reciprocity: swapping a and n flips the
        // sign iff both are ≡ 3 (mod 4).
        if less(&a[..alen], &n[..nlen]) {
            if a[0] & 3 == 3 && n[0] & 3 == 3 {
                t = -t;
            }
            std::mem::swap(&mut a, &mut n);
            std::mem::swap(&mut alen, &mut nlen);
        }
        // (a/n) = ((a − n)/n); the difference is even or zero, and
        // its factors of two are stripped in the same pass.
        let tz = sub_shr(&mut a[..alen], &n[..nlen]);
        alen = active_len(a, alen);
        if tz % 2 == 1 && matches!(n[0] & 7, 3 | 5) {
            t = -t;
        }
    }
}

/// Headroom, in bits of a 128-bit word, that makes an operand "much
/// shorter": below 2^96 the division [`rem_u128`] takes at most a few
/// native remainders per limb, which beats stepping the long operand
/// down bit by bit.
const SHORT_ROOM: u32 = 32;

/// `(a/n)` for a short numerator and a modulus wider than 128 bits:
/// one reciprocity swap and one division `n mod a` leave a symbol of
/// two native integers.
fn short_numerator(a: u128, n: &[u64]) -> i8 {
    if a == 0 {
        // n > 1 here, so gcd(0, n) = n ≠ 1.
        return 0;
    }
    let tz = a.trailing_zeros();
    let a = a >> tz;
    let mut t = 1i8;
    if tz % 2 == 1 && matches!(n[0] & 7, 3 | 5) {
        t = -t;
    }
    if a & 3 == 3 && n[0] & 3 == 3 {
        t = -t;
    }
    t * jacobi_u128(rem_u128(n, a), a)
}

/// The binary loop on 128-bit integers for odd `n`, handing over to
/// [`jacobi_u64`] once both operands fit in 64 bits. The sign is kept
/// as bit 0 of `flip`: `(2/n)` is −1 when bits 1 and 2 of `n` differ,
/// and a reciprocity swap flips when bit 1 is set in both operands.
fn jacobi_u128(mut a: u128, mut n: u128) -> i8 {
    let mut flip = 0u32;
    while (a | n) >> 64 != 0 {
        if a == 0 {
            // n ≥ 2^64 > 1.
            return 0;
        }
        let tz = a.trailing_zeros();
        a >>= tz;
        flip ^= tz & ((n >> 1) ^ (n >> 2)) as u32;
        let lt = a < n;
        flip ^= u32::from(lt) & ((a & n) >> 1) as u32;
        let d = a.wrapping_sub(n);
        n = if lt { a } else { n };
        a = if lt { d.wrapping_neg() } else { d };
    }
    sign(flip) * jacobi_u64(a as u64, n as u64)
}

/// [`jacobi_u128`] on 64-bit integers.
fn jacobi_u64(mut a: u64, mut n: u64) -> i8 {
    let mut flip = 0u32;
    while a != 0 {
        let tz = a.trailing_zeros();
        a >>= tz;
        flip ^= tz & ((n >> 1) ^ (n >> 2)) as u32;
        let lt = a < n;
        flip ^= u32::from(lt) & ((a & n) >> 1) as u32;
        let d = a.wrapping_sub(n);
        n = if lt { a } else { n };
        a = if lt { d.wrapping_neg() } else { d };
    }
    if n == 1 {
        sign(flip)
    } else {
        0
    }
}

fn sign(flip: u32) -> i8 {
    1 - 2 * (flip & 1) as i8
}

/// `x mod m` for little-endian limbs `x` and `0 < m < 2^96`: shifts in
/// as many bits of `x` at a time as the headroom above `m` allows, one
/// native remainder per chunk (one per limb when `m` fits in 64 bits).
fn rem_u128(x: &[u64], m: u128) -> u128 {
    let room = m.leading_zeros();
    debug_assert!(room >= SHORT_ROOM);
    let mut r = 0u128;
    for &limb in x.iter().rev() {
        let mut left = 64u32;
        while left > 0 {
            let c = room.min(left);
            left -= c;
            let bits = if c == 64 {
                limb
            } else {
                (limb >> left) & ((1u64 << c) - 1)
            };
            r = ((r << c) | u128::from(bits)) % m;
        }
    }
    r
}

fn to_u128(x: &[u64]) -> u128 {
    x.iter()
        .rev()
        .fold(0u128, |acc, &limb| (acc << 64) | u128::from(limb))
}

/// Length of `x[..len]` without its zero top limbs.
fn active_len(x: &[u64], mut len: usize) -> usize {
    while len > 0 && x[len - 1] == 0 {
        len -= 1;
    }
    len
}

/// Number of trailing zero bits of a non-zero value.
fn trailing_zeros(x: &[u64]) -> usize {
    let limb = x.iter().position(|&l| l != 0).expect("non-zero value");
    limb * 64 + x[limb].trailing_zeros() as usize
}

/// `x >>= bits` within `x`'s own limbs (vacated top limbs zeroed).
fn shr_in_place(x: &mut [u64], bits: usize) {
    let (limbs, off) = (bits / 64, (bits % 64) as u32);
    let len = x.len();
    for i in 0..len - limbs {
        let lo = x[i + limbs] >> off;
        let hi = match x.get(i + limbs + 1) {
            Some(&next) if off > 0 => next << (64 - off),
            _ => 0,
        };
        x[i] = lo | hi;
    }
    x[len - limbs..].fill(0);
}

/// `a < b` for normalized limb slices.
fn less(a: &[u64], b: &[u64]) -> bool {
    if a.len() != b.len() {
        return a.len() < b.len();
    }
    for (x, y) in a.iter().rev().zip(b.iter().rev()) {
        if x != y {
            return x < y;
        }
    }
    false
}

/// `a = (a − b) >> tz` for odd `a ≥ b` (`b` no longer than `a`) in
/// one pass, where `tz` — the return value — counts the trailing zeros
/// of the difference when its low limb is non-zero. When the low limb
/// is zero the difference is left unshifted and `0` is returned, so the
/// caller's general strip step takes over.
fn sub_shr(a: &mut [u64], b: &[u64]) -> u32 {
    let (low, mut borrow) = a[0].overflowing_sub(b[0]);
    let tz = if low == 0 { 0 } else { low.trailing_zeros() };
    let mut prev = low;
    for i in 1..a.len() {
        let (d1, b1) = a[i].overflowing_sub(b.get(i).copied().unwrap_or(0));
        let (d2, b2) = d1.overflowing_sub(u64::from(borrow));
        borrow = b1 || b2;
        a[i - 1] = if tz == 0 {
            prev
        } else {
            (prev >> tz) | (d2 << (64 - tz))
        };
        prev = d2;
    }
    a[a.len() - 1] = prev >> tz;
    debug_assert!(!borrow, "sub_shr underflow");
    tz
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modular;
    use rand::SeedableRng;

    /// Euler-criterion reference: for odd prime p,
    /// a^((p-1)/2) mod p ∈ {0, 1, p-1} ↦ {0, 1, -1}.
    fn euler(a: &Ubig, p: &Ubig) -> i8 {
        let e = (p - &Ubig::one()) >> 1;
        let r = modular::modexp(a, &e, p);
        if r.is_zero() {
            0
        } else if r.is_one() {
            1
        } else {
            -1
        }
    }

    #[test]
    fn matches_euler_criterion_on_small_primes() {
        for p in [3u64, 5, 7, 11, 13, 1_000_000_007] {
            let p = Ubig::from_u64(p);
            for a in 0..40u64 {
                let a = Ubig::from_u64(a);
                assert_eq!(jacobi(&a, &p), euler(&a, &p), "a={a} p={p}");
            }
        }
    }

    #[test]
    fn matches_euler_criterion_on_multi_limb_primes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4242);
        // Mersenne primes 2^89-1, 2^107-1, 2^127-1, 2^521-1: native,
        // stack-buffer and heap-buffer moduli.
        for bits in [89u32, 107, 127, 521] {
            let p = (Ubig::one() << bits as usize) - Ubig::one();
            for _ in 0..25 {
                let a = Ubig::random_below(&mut rng, &p);
                assert_eq!(jacobi(&a, &p), euler(&a, &p), "bits={bits}");
                // Short numerators take the one-division shortcut.
                let short = Ubig::random_bits(&mut rng, 72);
                assert_eq!(jacobi(&short, &p), euler(&short, &p), "bits={bits}");
            }
        }
    }

    #[test]
    fn composite_modulus_detects_shared_factors() {
        // (a/n) = 0 iff gcd(a, n) > 1.
        let n = Ubig::from_u64(15);
        assert_eq!(jacobi(&Ubig::from_u64(3), &n), 0);
        assert_eq!(jacobi(&Ubig::from_u64(5), &n), 0);
        assert_eq!(jacobi(&Ubig::from_u64(2), &n), 1);
        assert_eq!(jacobi(&Ubig::from_u64(7), &n), -1);
    }

    #[test]
    fn multiplicativity_in_the_numerator() {
        let p = Ubig::from_u64(101);
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let a = Ubig::random_range(&mut rng, &Ubig::one(), &p);
            let b = Ubig::random_range(&mut rng, &Ubig::one(), &p);
            let ab = modular::modmul(&a, &b, &p);
            assert_eq!(jacobi(&ab, &p), jacobi(&a, &p) * jacobi(&b, &p));
        }
    }

    #[test]
    fn unreduced_numerator_is_reduced_first() {
        let p = Ubig::from_u64(97);
        let a = Ubig::from_u64(5 + 97 * 12);
        assert_eq!(jacobi(&a, &p), jacobi(&Ubig::from_u64(5), &p));
    }

    #[test]
    fn remainder_by_a_native_modulus() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for bits in [1usize, 63, 64, 65, 95] {
            for _ in 0..10 {
                let x = Ubig::random_bits(&mut rng, 300);
                let m = Ubig::random_bits(&mut rng, bits) + Ubig::one();
                let expect = (&x % &m).to_u128().expect("below m");
                assert_eq!(rem_u128(x.limbs(), m.to_u128().unwrap()), expect);
            }
        }
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_modulus_panics() {
        let _ = jacobi(&Ubig::from_u64(3), &Ubig::from_u64(8));
    }
}
