//! [`Ubig`]: arbitrary-precision unsigned integers on `u64` limbs.
//!
//! Representation: little-endian limb vector, always *normalized* (no
//! trailing zero limbs; zero is the empty vector). All public operations
//! preserve normalization.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Rem, Shl, Shr, Sub, SubAssign};
use std::str::FromStr;

/// An arbitrary-precision unsigned integer.
///
/// `Ubig` supports the usual arithmetic operators (`+`, `-`, `*`, `/`,
/// `%`, `<<`, `>>`) on both owned values and references, comparison,
/// hashing, and conversion to/from decimal and hexadecimal strings as
/// well as big-endian byte strings.
///
/// # Examples
///
/// ```
/// use dla_bigint::Ubig;
///
/// let a: Ubig = "340282366920938463463374607431768211456".parse()?; // 2^128
/// let b = Ubig::one() << 128;
/// assert_eq!(a, b);
/// assert_eq!((&a * &a) >> 128, a);
/// # Ok::<(), dla_bigint::ParseUbigError>(())
/// ```
///
/// # Panics
///
/// Subtraction panics on underflow (use [`Ubig::checked_sub`] to detect
/// it) and division panics on a zero divisor (use [`Ubig::div_rem`]'s
/// documented precondition).
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Ubig {
    /// Little-endian limbs, normalized: `limbs.last() != Some(&0)`.
    limbs: Vec<u64>,
}

/// Error returned when parsing a [`Ubig`] from a malformed string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseUbigError {
    kind: ParseErrorKind,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum ParseErrorKind {
    Empty,
    InvalidDigit(char),
}

impl fmt::Display for ParseUbigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            ParseErrorKind::Empty => write!(f, "cannot parse integer from empty string"),
            ParseErrorKind::InvalidDigit(c) => write!(f, "invalid digit found in string: {c:?}"),
        }
    }
}

impl std::error::Error for ParseUbigError {}

impl Ubig {
    /// The value `0`.
    #[must_use]
    pub fn zero() -> Self {
        Ubig { limbs: Vec::new() }
    }

    /// The value `1`.
    #[must_use]
    pub fn one() -> Self {
        Ubig { limbs: vec![1] }
    }

    /// The value `2`.
    #[must_use]
    pub fn two() -> Self {
        Ubig { limbs: vec![2] }
    }

    /// Constructs a `Ubig` from a `u64`.
    #[must_use]
    pub fn from_u64(v: u64) -> Self {
        if v == 0 {
            Self::zero()
        } else {
            Ubig { limbs: vec![v] }
        }
    }

    /// Constructs a `Ubig` from a `u128`.
    #[must_use]
    pub fn from_u128(v: u128) -> Self {
        let lo = v as u64;
        let hi = (v >> 64) as u64;
        let mut limbs = vec![lo, hi];
        normalize(&mut limbs);
        Ubig { limbs }
    }

    /// Constructs a `Ubig` from little-endian limbs (trailing zeros allowed).
    #[must_use]
    pub fn from_limbs(mut limbs: Vec<u64>) -> Self {
        normalize(&mut limbs);
        Ubig { limbs }
    }

    /// Returns the little-endian limbs of `self`.
    #[must_use]
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Overwrites the low byte with `byte`, in place: a search over the
    /// last byte of a candidate (the QR pad of a message encoding)
    /// rewrites one value instead of building a new one per try.
    pub fn set_low_byte(&mut self, byte: u8) {
        match self.limbs.first_mut() {
            Some(low) => *low = (*low & !0xff) | u64::from(byte),
            None => self.limbs.push(u64::from(byte)),
        }
        normalize(&mut self.limbs);
    }

    /// Returns `true` if `self` is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Returns `true` if `self` is one.
    #[must_use]
    pub fn is_one(&self) -> bool {
        self.limbs == [1]
    }

    /// Returns `true` if the low bit is clear (zero counts as even).
    #[must_use]
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Returns the value as a `u64` if it fits.
    #[must_use]
    pub fn to_u64(&self) -> Option<u64> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// Returns the value as a `u128` if it fits.
    #[must_use]
    pub fn to_u128(&self) -> Option<u128> {
        match self.limbs.len() {
            0 => Some(0),
            1 => Some(u128::from(self.limbs[0])),
            2 => Some(u128::from(self.limbs[0]) | (u128::from(self.limbs[1]) << 64)),
            _ => None,
        }
    }

    /// Number of significant bits (`0` for zero).
    #[must_use]
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(top) => self.limbs.len() * 64 - top.leading_zeros() as usize,
        }
    }

    /// Returns bit `i` (little-endian position), `false` beyond the top.
    #[must_use]
    pub fn bit(&self, i: usize) -> bool {
        let (limb, off) = (i / 64, i % 64);
        self.limbs.get(limb).is_some_and(|l| (l >> off) & 1 == 1)
    }

    /// `self - rhs`, or `None` on underflow.
    #[must_use]
    pub fn checked_sub(&self, rhs: &Ubig) -> Option<Ubig> {
        if self < rhs {
            None
        } else {
            Some(sub(self, rhs))
        }
    }

    /// Simultaneous quotient and remainder: `(self / rhs, self % rhs)`.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    #[must_use]
    pub fn div_rem(&self, rhs: &Ubig) -> (Ubig, Ubig) {
        assert!(!rhs.is_zero(), "division by zero");
        match self.cmp(rhs) {
            Ordering::Less => return (Ubig::zero(), self.clone()),
            Ordering::Equal => return (Ubig::one(), Ubig::zero()),
            Ordering::Greater => {}
        }
        if rhs.limbs.len() == 1 {
            let (q, r) = div_rem_limb(self, rhs.limbs[0]);
            return (q, Ubig::from_u64(r));
        }
        div_rem_knuth(self, rhs)
    }

    /// Big-endian byte representation, without leading zero bytes
    /// (zero yields an empty vector).
    #[must_use]
    pub fn to_bytes_be(&self) -> Vec<u8> {
        if self.is_zero() {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for limb in self.limbs.iter().rev() {
            out.extend_from_slice(&limb.to_be_bytes());
        }
        let skip = out.iter().take_while(|&&b| b == 0).count();
        out.drain(..skip);
        out
    }

    /// Constructs a `Ubig` from big-endian bytes (leading zeros allowed).
    #[must_use]
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        for chunk in bytes.rchunks(8) {
            let mut buf = [0u8; 8];
            buf[8 - chunk.len()..].copy_from_slice(chunk);
            limbs.push(u64::from_be_bytes(buf));
        }
        normalize(&mut limbs);
        Ubig { limbs }
    }

    /// Parses a hexadecimal string (no `0x` prefix, case-insensitive).
    ///
    /// # Errors
    ///
    /// Returns [`ParseUbigError`] if the string is empty or contains a
    /// non-hex character.
    pub fn from_hex(s: &str) -> Result<Self, ParseUbigError> {
        if s.is_empty() {
            return Err(ParseUbigError {
                kind: ParseErrorKind::Empty,
            });
        }
        let mut limbs: Vec<u64> = Vec::with_capacity(s.len() / 16 + 1);
        let bytes = s.as_bytes();
        let mut idx = bytes.len();
        while idx > 0 {
            let start = idx.saturating_sub(16);
            let chunk = &s[start..idx];
            let v = u64::from_str_radix(chunk, 16).map_err(|_| {
                let bad = chunk
                    .chars()
                    .find(|c| !c.is_ascii_hexdigit())
                    .unwrap_or('?');
                ParseUbigError {
                    kind: ParseErrorKind::InvalidDigit(bad),
                }
            })?;
            limbs.push(v);
            idx = start;
        }
        normalize(&mut limbs);
        Ok(Ubig { limbs })
    }

    /// Lowercase hexadecimal representation (no prefix; `"0"` for zero).
    #[must_use]
    pub fn to_hex(&self) -> String {
        format!("{self:x}")
    }
}

fn normalize(limbs: &mut Vec<u64>) {
    while limbs.last() == Some(&0) {
        limbs.pop();
    }
}

// ---------------------------------------------------------------------------
// Core limb algorithms
// ---------------------------------------------------------------------------

fn add(a: &Ubig, b: &Ubig) -> Ubig {
    let (long, short) = if a.limbs.len() >= b.limbs.len() {
        (&a.limbs, &b.limbs)
    } else {
        (&b.limbs, &a.limbs)
    };
    let mut out = Vec::with_capacity(long.len() + 1);
    let mut carry = 0u64;
    #[allow(clippy::needless_range_loop)] // parallel walk over two unequal slices
    for i in 0..long.len() {
        let s = u128::from(long[i]) + u128::from(*short.get(i).unwrap_or(&0)) + u128::from(carry);
        out.push(s as u64);
        carry = (s >> 64) as u64;
    }
    if carry != 0 {
        out.push(carry);
    }
    Ubig { limbs: out }
}

/// Precondition: `a >= b`.
fn sub(a: &Ubig, b: &Ubig) -> Ubig {
    debug_assert!(a >= b, "Ubig subtraction underflow");
    let mut out = Vec::with_capacity(a.limbs.len());
    let mut borrow = 0u64;
    for i in 0..a.limbs.len() {
        let bi = *b.limbs.get(i).unwrap_or(&0);
        let (d1, o1) = a.limbs[i].overflowing_sub(bi);
        let (d2, o2) = d1.overflowing_sub(borrow);
        out.push(d2);
        borrow = u64::from(o1) + u64::from(o2);
    }
    assert_eq!(borrow, 0, "Ubig subtraction underflow");
    normalize(&mut out);
    Ubig { limbs: out }
}

fn mul(a: &Ubig, b: &Ubig) -> Ubig {
    if a.is_zero() || b.is_zero() {
        return Ubig::zero();
    }
    let mut out = vec![0u64; a.limbs.len() + b.limbs.len()];
    for (i, &ai) in a.limbs.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        let mut carry = 0u128;
        for (j, &bj) in b.limbs.iter().enumerate() {
            let cur = u128::from(out[i + j]) + u128::from(ai) * u128::from(bj) + carry;
            out[i + j] = cur as u64;
            carry = cur >> 64;
        }
        let mut k = i + b.limbs.len();
        while carry != 0 {
            let cur = u128::from(out[k]) + carry;
            out[k] = cur as u64;
            carry = cur >> 64;
            k += 1;
        }
    }
    normalize(&mut out);
    Ubig { limbs: out }
}

fn shl(a: &Ubig, n: usize) -> Ubig {
    if a.is_zero() || n == 0 {
        return a.clone();
    }
    let (limb_shift, bit_shift) = (n / 64, n % 64);
    let mut out = vec![0u64; a.limbs.len() + limb_shift + 1];
    for (i, &limb) in a.limbs.iter().enumerate() {
        if bit_shift == 0 {
            out[i + limb_shift] = limb;
        } else {
            out[i + limb_shift] |= limb << bit_shift;
            out[i + limb_shift + 1] |= limb >> (64 - bit_shift);
        }
    }
    normalize(&mut out);
    Ubig { limbs: out }
}

fn shr(a: &Ubig, n: usize) -> Ubig {
    if a.is_zero() || n == 0 {
        return a.clone();
    }
    let (limb_shift, bit_shift) = (n / 64, n % 64);
    if limb_shift >= a.limbs.len() {
        return Ubig::zero();
    }
    let mut out = Vec::with_capacity(a.limbs.len() - limb_shift);
    for i in limb_shift..a.limbs.len() {
        let mut limb = a.limbs[i] >> bit_shift;
        if bit_shift > 0 {
            if let Some(&next) = a.limbs.get(i + 1) {
                limb |= next << (64 - bit_shift);
            }
        }
        out.push(limb);
    }
    normalize(&mut out);
    Ubig { limbs: out }
}

fn div_rem_limb(a: &Ubig, d: u64) -> (Ubig, u64) {
    debug_assert!(d != 0);
    let mut out = vec![0u64; a.limbs.len()];
    let mut rem = 0u64;
    for i in (0..a.limbs.len()).rev() {
        let cur = (u128::from(rem) << 64) | u128::from(a.limbs[i]);
        out[i] = (cur / u128::from(d)) as u64;
        rem = (cur % u128::from(d)) as u64;
    }
    normalize(&mut out);
    (Ubig { limbs: out }, rem)
}

/// Knuth TAOCP vol. 2, Algorithm 4.3.1 D. Preconditions checked by caller:
/// `a > b`, `b.limbs.len() >= 2`.
fn div_rem_knuth(a: &Ubig, b: &Ubig) -> (Ubig, Ubig) {
    // D1: normalize so the divisor's top limb has its high bit set.
    let shift = b.limbs.last().unwrap().leading_zeros() as usize;
    let u = shl(a, shift);
    let v = shl(b, shift);
    let n = v.limbs.len();
    let m = u.limbs.len() - n;

    // Working copy of the dividend with one extra high limb.
    let mut un: Vec<u64> = u.limbs.clone();
    un.push(0);
    let vn = &v.limbs;
    let v_top = vn[n - 1];
    let v_next = vn[n - 2];

    let mut q = vec![0u64; m + 1];

    // D2..D7: main loop.
    for j in (0..=m).rev() {
        // D3: estimate qhat from the top two dividend limbs.
        let num = (u128::from(un[j + n]) << 64) | u128::from(un[j + n - 1]);
        let mut qhat = num / u128::from(v_top);
        let mut rhat = num % u128::from(v_top);
        while qhat >> 64 != 0
            || qhat * u128::from(v_next) > ((rhat << 64) | u128::from(un[j + n - 2]))
        {
            qhat -= 1;
            rhat += u128::from(v_top);
            if rhat >> 64 != 0 {
                break;
            }
        }

        // D4: multiply-and-subtract qhat * v from un[j .. j+n].
        let mut borrow = 0i128;
        let mut carry = 0u128;
        for i in 0..n {
            let p = qhat * u128::from(vn[i]) + carry;
            carry = p >> 64;
            let sub = i128::from(un[j + i]) - i128::from(p as u64) + borrow;
            un[j + i] = sub as u64;
            borrow = sub >> 64; // arithmetic shift: 0 or -1
        }
        let sub = i128::from(un[j + n]) - i128::from(carry as u64) + borrow;
        un[j + n] = sub as u64;
        borrow = sub >> 64;

        // D5/D6: if we over-subtracted, add back one divisor.
        let mut qj = qhat as u64;
        if borrow < 0 {
            qj -= 1;
            let mut carry = 0u128;
            for i in 0..n {
                let s = u128::from(un[j + i]) + u128::from(vn[i]) + carry;
                un[j + i] = s as u64;
                carry = s >> 64;
            }
            un[j + n] = un[j + n].wrapping_add(carry as u64);
        }
        q[j] = qj;
    }

    normalize(&mut q);
    // D8: denormalize the remainder.
    let mut r = un;
    r.truncate(n);
    normalize(&mut r);
    let rem = shr(&Ubig { limbs: r }, shift);
    (Ubig { limbs: q }, rem)
}

// ---------------------------------------------------------------------------
// Trait impls
// ---------------------------------------------------------------------------

impl Ord for Ubig {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {}
            ord => return ord,
        }
        for i in (0..self.limbs.len()).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl PartialOrd for Ubig {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

macro_rules! forward_binop {
    ($trait:ident, $method:ident, $func:path) => {
        impl $trait<&Ubig> for &Ubig {
            type Output = Ubig;
            fn $method(self, rhs: &Ubig) -> Ubig {
                $func(self, rhs)
            }
        }
        impl $trait<Ubig> for Ubig {
            type Output = Ubig;
            fn $method(self, rhs: Ubig) -> Ubig {
                $func(&self, &rhs)
            }
        }
        impl $trait<&Ubig> for Ubig {
            type Output = Ubig;
            fn $method(self, rhs: &Ubig) -> Ubig {
                $func(&self, rhs)
            }
        }
        impl $trait<Ubig> for &Ubig {
            type Output = Ubig;
            fn $method(self, rhs: Ubig) -> Ubig {
                $func(self, &rhs)
            }
        }
    };
}

forward_binop!(Add, add, add);
forward_binop!(Sub, sub, sub);
forward_binop!(Mul, mul, mul);

fn div_op(a: &Ubig, b: &Ubig) -> Ubig {
    a.div_rem(b).0
}

fn rem_op(a: &Ubig, b: &Ubig) -> Ubig {
    a.div_rem(b).1
}

forward_binop!(Div, div, div_op);
forward_binop!(Rem, rem, rem_op);

impl AddAssign<&Ubig> for Ubig {
    fn add_assign(&mut self, rhs: &Ubig) {
        *self = add(self, rhs);
    }
}

impl SubAssign<&Ubig> for Ubig {
    fn sub_assign(&mut self, rhs: &Ubig) {
        *self = sub(self, rhs);
    }
}

impl Shl<usize> for &Ubig {
    type Output = Ubig;
    fn shl(self, n: usize) -> Ubig {
        shl(self, n)
    }
}

impl Shl<usize> for Ubig {
    type Output = Ubig;
    fn shl(self, n: usize) -> Ubig {
        shl(&self, n)
    }
}

impl Shr<usize> for &Ubig {
    type Output = Ubig;
    fn shr(self, n: usize) -> Ubig {
        shr(self, n)
    }
}

impl Shr<usize> for Ubig {
    type Output = Ubig;
    fn shr(self, n: usize) -> Ubig {
        shr(&self, n)
    }
}

impl From<u64> for Ubig {
    fn from(v: u64) -> Self {
        Ubig::from_u64(v)
    }
}

impl From<u128> for Ubig {
    fn from(v: u128) -> Self {
        Ubig::from_u128(v)
    }
}

impl From<u32> for Ubig {
    fn from(v: u32) -> Self {
        Ubig::from_u64(u64::from(v))
    }
}

impl fmt::LowerHex for Ubig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut s = String::with_capacity(self.limbs.len() * 16);
        let mut iter = self.limbs.iter().rev();
        if let Some(top) = iter.next() {
            s.push_str(&format!("{top:x}"));
        }
        for limb in iter {
            s.push_str(&format!("{limb:016x}"));
        }
        f.pad_integral(true, "0x", &s)
    }
}

impl fmt::Display for Ubig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        // Peel off 19-decimal-digit chunks (10^19 fits in u64).
        const CHUNK: u64 = 10_000_000_000_000_000_000;
        let mut chunks = Vec::new();
        let mut cur = self.clone();
        while !cur.is_zero() {
            let (q, r) = div_rem_limb(&cur, CHUNK);
            chunks.push(r);
            cur = q;
        }
        let mut s = String::new();
        let mut iter = chunks.iter().rev();
        if let Some(top) = iter.next() {
            s.push_str(&top.to_string());
        }
        for chunk in iter {
            s.push_str(&format!("{chunk:019}"));
        }
        f.pad_integral(true, "", &s)
    }
}

impl fmt::Debug for Ubig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ubig({self})")
    }
}

impl FromStr for Ubig {
    type Err = ParseUbigError;

    /// Parses a decimal string.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.is_empty() {
            return Err(ParseUbigError {
                kind: ParseErrorKind::Empty,
            });
        }
        let mut acc = Ubig::zero();
        let ten_pow_19 = Ubig::from_u64(10_000_000_000_000_000_000);
        let bytes = s.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            let end = (i + 19).min(bytes.len());
            let chunk = &s[i..end];
            let v: u64 = chunk.parse().map_err(|_| {
                let bad = chunk.chars().find(|c| !c.is_ascii_digit()).unwrap_or('?');
                ParseUbigError {
                    kind: ParseErrorKind::InvalidDigit(bad),
                }
            })?;
            let scale = if end - i == 19 {
                ten_pow_19.clone()
            } else {
                Ubig::from_u64(10u64.pow((end - i) as u32))
            };
            acc = &(&acc * &scale) + &Ubig::from_u64(v);
            i = end;
        }
        Ok(acc)
    }
}

// ---------------------------------------------------------------------------
// Random sampling
// ---------------------------------------------------------------------------

impl Ubig {
    /// Samples a uniform integer in `[0, bound)` using rejection sampling.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn random_below<R: rand::Rng + ?Sized>(rng: &mut R, bound: &Ubig) -> Ubig {
        assert!(!bound.is_zero(), "random_below: zero bound");
        let bits = bound.bit_len();
        let limbs = bits.div_ceil(64);
        let top_mask = if bits.is_multiple_of(64) {
            u64::MAX
        } else {
            (1u64 << (bits % 64)) - 1
        };
        loop {
            let mut v: Vec<u64> = (0..limbs).map(|_| rng.gen()).collect();
            if let Some(top) = v.last_mut() {
                *top &= top_mask;
            }
            let candidate = Ubig::from_limbs(v);
            if &candidate < bound {
                return candidate;
            }
        }
    }

    /// Samples a uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn random_range<R: rand::Rng + ?Sized>(rng: &mut R, lo: &Ubig, hi: &Ubig) -> Ubig {
        assert!(lo < hi, "random_range: empty range");
        let span = hi - lo;
        lo + Ubig::random_below(rng, &span)
    }

    /// Samples a uniform integer with exactly `bits` significant bits
    /// (top bit forced to one).
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero.
    pub fn random_bits<R: rand::Rng + ?Sized>(rng: &mut R, bits: usize) -> Ubig {
        assert!(bits > 0, "random_bits: zero width");
        let limbs = bits.div_ceil(64);
        let mut v: Vec<u64> = (0..limbs).map(|_| rng.gen()).collect();
        let top_bits = if bits.is_multiple_of(64) {
            64
        } else {
            bits % 64
        };
        let top = v.last_mut().expect("at least one limb");
        if top_bits < 64 {
            *top &= (1u64 << top_bits) - 1;
        }
        *top |= 1u64 << (top_bits - 1);
        Ubig::from_limbs(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn big(v: u128) -> Ubig {
        Ubig::from_u128(v)
    }

    #[test]
    fn zero_and_one_basics() {
        assert!(Ubig::zero().is_zero());
        assert!(Ubig::one().is_one());
        assert!(!Ubig::one().is_zero());
        assert_eq!(Ubig::zero().bit_len(), 0);
        assert_eq!(Ubig::one().bit_len(), 1);
        assert_eq!(Ubig::default(), Ubig::zero());
    }

    #[test]
    fn set_low_byte_keeps_normalization() {
        let mut v = Ubig::zero();
        v.set_low_byte(0);
        assert!(v.is_zero());
        v.set_low_byte(7);
        assert_eq!(v, Ubig::from_u64(7));
        v.set_low_byte(0);
        assert!(v.is_zero());
        let mut w = big(0xabcd_u128 << 72);
        for byte in [0u8, 1, 0xff] {
            w.set_low_byte(byte);
            assert_eq!(w, big((0xabcd_u128 << 72) | u128::from(byte)));
        }
    }

    #[test]
    fn add_sub_round_trip_u128() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let a: u128 = rng.gen::<u128>() >> 1;
            let b: u128 = rng.gen::<u128>() >> 1;
            assert_eq!(big(a) + big(b), big(a + b));
            let (hi, lo) = if a > b { (a, b) } else { (b, a) };
            assert_eq!(big(hi) - big(lo), big(hi - lo));
        }
    }

    #[test]
    fn mul_matches_u128() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        for _ in 0..200 {
            let a: u64 = rng.gen();
            let b: u64 = rng.gen();
            assert_eq!(
                big(u128::from(a)) * big(u128::from(b)),
                big(u128::from(a) * u128::from(b))
            );
        }
    }

    #[test]
    fn mul_carries_across_limbs() {
        let a = Ubig::from_limbs(vec![u64::MAX, u64::MAX]);
        let sq = &a * &a;
        // (2^128 - 1)^2 = 2^256 - 2^129 + 1
        let expect = (Ubig::one() << 256) - (Ubig::one() << 129) + Ubig::one();
        assert_eq!(sq, expect);
    }

    #[test]
    fn div_rem_matches_u128() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..300 {
            let a: u128 = rng.gen();
            let b: u128 = rng.gen::<u64>() as u128 + 1;
            let (q, r) = big(a).div_rem(&big(b));
            assert_eq!(q, big(a / b));
            assert_eq!(r, big(a % b));
        }
    }

    #[test]
    fn div_rem_identity_multi_limb() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        for _ in 0..100 {
            let a = Ubig::random_bits(&mut rng, 512);
            let b = Ubig::random_bits(&mut rng, 200);
            let (q, r) = a.div_rem(&b);
            assert!(r < b);
            assert_eq!(&(&q * &b) + &r, a);
        }
    }

    #[test]
    fn knuth_add_back_branch_is_exercised() {
        // Classic add-back trigger: dividend 2^128 - 1, divisor 2^64 + 3 style
        // operands plus a brute scan over crafted patterns.
        let a = Ubig::from_limbs(vec![0, u64::MAX, u64::MAX - 1]);
        let b = Ubig::from_limbs(vec![u64::MAX, u64::MAX]);
        let (q, r) = a.div_rem(&b);
        assert_eq!(&(&q * &b) + &r, a);
        assert!(r < b);
    }

    #[test]
    fn division_by_self_and_smaller() {
        let a = big(123_456_789_000);
        assert_eq!(a.div_rem(&a), (Ubig::one(), Ubig::zero()));
        let small = big(99);
        assert_eq!(small.div_rem(&a), (Ubig::zero(), small));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = Ubig::one().div_rem(&Ubig::zero());
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = Ubig::one() - Ubig::two();
    }

    #[test]
    fn checked_sub_detects_underflow() {
        assert_eq!(Ubig::one().checked_sub(&Ubig::two()), None);
        assert_eq!(Ubig::two().checked_sub(&Ubig::one()), Some(Ubig::one()));
    }

    #[test]
    fn shifts_match_u128() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for _ in 0..100 {
            let a: u128 = rng.gen();
            let n = rng.gen_range(0..127usize);
            // shl is multiplication by 2^n (checked against Ubig mul so no
            // bits are lost even when the result exceeds 128 bits).
            let pow2 = Ubig::one() << n;
            assert_eq!(big(a) << n, big(a) * pow2);
            assert_eq!(big(a) >> n, big(a >> n));
        }
    }

    #[test]
    fn shl_then_shr_is_identity() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        for _ in 0..50 {
            let a = Ubig::random_bits(&mut rng, 300);
            let n = rng.gen_range(0..500usize);
            assert_eq!((&a << n) >> n, a);
        }
    }

    #[test]
    fn decimal_round_trip() {
        let cases = [
            "0",
            "1",
            "18446744073709551615",
            "18446744073709551616",
            "340282366920938463463374607431768211455",
            "999999999999999999999999999999999999999999999999",
        ];
        for c in cases {
            let v: Ubig = c.parse().unwrap();
            assert_eq!(v.to_string(), c);
        }
    }

    #[test]
    fn hex_round_trip() {
        let cases = ["0", "1", "ff", "deadbeefdeadbeefdeadbeefdeadbeef1"];
        for c in cases {
            let v = Ubig::from_hex(c).unwrap();
            assert_eq!(v.to_hex(), c);
        }
        assert_eq!(Ubig::from_hex("FF").unwrap(), Ubig::from_u64(255));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<Ubig>().is_err());
        assert!("12a3".parse::<Ubig>().is_err());
        assert!("-5".parse::<Ubig>().is_err());
        assert!(Ubig::from_hex("xyz").is_err());
        assert!(Ubig::from_hex("").is_err());
        let err = "12a3".parse::<Ubig>().unwrap_err();
        assert!(err.to_string().contains("invalid digit"));
    }

    #[test]
    fn bytes_round_trip() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for bits in [1usize, 8, 63, 64, 65, 256, 513] {
            let a = Ubig::random_bits(&mut rng, bits);
            assert_eq!(Ubig::from_bytes_be(&a.to_bytes_be()), a);
        }
        assert!(Ubig::zero().to_bytes_be().is_empty());
        assert_eq!(Ubig::from_bytes_be(&[0, 0, 7]), Ubig::from_u64(7));
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(big(5) < big(6));
        assert!(Ubig::from_limbs(vec![0, 1]) > Ubig::from_u64(u64::MAX));
        assert_eq!(Ubig::from_limbs(vec![3, 0, 0]), Ubig::from_u64(3));
    }

    #[test]
    fn bit_access() {
        let v = Ubig::from_u64(0b1010);
        assert!(!v.bit(0));
        assert!(v.bit(1));
        assert!(!v.bit(2));
        assert!(v.bit(3));
        assert!(!v.bit(200));
        let big = Ubig::one() << 100;
        assert!(big.bit(100));
        assert_eq!(big.bit_len(), 101);
    }

    #[test]
    fn random_below_respects_bound() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let bound = Ubig::from_u64(1000);
        for _ in 0..200 {
            let v = Ubig::random_below(&mut rng, &bound);
            assert!(v < bound);
        }
        // Degenerate bound of one always yields zero.
        assert!(Ubig::random_below(&mut rng, &Ubig::one()).is_zero());
    }

    #[test]
    fn random_bits_has_exact_width() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for bits in [1usize, 2, 64, 65, 512] {
            let v = Ubig::random_bits(&mut rng, bits);
            assert_eq!(v.bit_len(), bits);
        }
    }

    #[test]
    fn random_range_within_bounds() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let lo = Ubig::from_u64(500);
        let hi = Ubig::from_u64(600);
        for _ in 0..100 {
            let v = Ubig::random_range(&mut rng, &lo, &hi);
            assert!(v >= lo && v < hi);
        }
    }

    #[test]
    fn display_pads_and_debug_nonempty() {
        assert_eq!(format!("{}", Ubig::zero()), "0");
        assert_eq!(format!("{:?}", Ubig::zero()), "Ubig(0)");
        assert_eq!(format!("{:x}", Ubig::from_u64(255)), "ff");
        assert_eq!(format!("{:#x}", Ubig::from_u64(255)), "0xff");
    }

    #[test]
    fn conversions_to_native() {
        assert_eq!(Ubig::from_u64(42).to_u64(), Some(42));
        assert_eq!((Ubig::one() << 64).to_u64(), None);
        assert_eq!((Ubig::one() << 64).to_u128(), Some(1u128 << 64));
        assert_eq!((Ubig::one() << 128).to_u128(), None);
    }
}
