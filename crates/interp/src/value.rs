//! Runtime values: bit-canonical, hashable, deterministic.
//!
//! Every value the machine produces is stored in a canonical bit form so
//! that two executions can be compared for *exact* equality: floats are
//! kept as the bits of their `f64` encoding after rounding through their
//! nominal format, NaNs are collapsed to one quiet pattern, and values of
//! types the evaluator has no model for are opaque 64-bit tokens. That
//! canonicalization is what makes the translation-validation oracle's
//! "observable divergence" a byte comparison instead of an epsilon test.

use irdl_ir::types::FloatKind;

/// The canonical quiet-NaN bit pattern every NaN result collapses to.
const CANON_NAN: u64 = 0x7ff8_0000_0000_0000;

/// A runtime value in the register file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EvalValue {
    /// A fixed-width integer, stored sign-extended and wrapped to `width`
    /// bits (two's complement; `index` values use width 64).
    Int {
        /// Sign-extended wrapped value.
        value: i128,
        /// Bit width (1..=128).
        width: u32,
    },
    /// A float, stored as the bits of its `f64` encoding after rounding
    /// through `kind`'s precision.
    Float {
        /// Canonicalized `f64` bit pattern.
        bits: u64,
        /// Nominal format.
        kind: FloatKind,
    },
    /// A complex number (two floats of the same format).
    Complex {
        /// Real part, canonicalized `f64` bits.
        re: u64,
        /// Imaginary part, canonicalized `f64` bits.
        im: u64,
        /// Nominal component format.
        kind: FloatKind,
    },
    /// A value of a type the evaluator has no model for: a deterministic
    /// 64-bit token. Equal tokens mean "the same unknown value".
    Opaque(u64),
}

/// Wraps `value` to `width` bits, two's complement, sign-extended.
pub fn wrap_int(value: i128, width: u32) -> i128 {
    let width = width.clamp(1, 128);
    if width == 128 {
        return value;
    }
    let masked = value & ((1i128 << width) - 1);
    // Sign-extend from bit `width - 1`.
    if masked & (1i128 << (width - 1)) != 0 {
        masked - (1i128 << width)
    } else {
        masked
    }
}

/// Rounds `v` through the precision of `kind` and canonicalizes NaN.
///
/// The 16-bit formats are approximated at `f32` precision: the repo has no
/// half/bfloat softfloat, and the approximation is used consistently by
/// both sides of every differential comparison.
pub fn canon_float_bits(v: f64, kind: FloatKind) -> u64 {
    if v.is_nan() {
        return CANON_NAN;
    }
    match kind {
        FloatKind::F64 => v.to_bits(),
        FloatKind::F32 | FloatKind::F16 | FloatKind::BF16 => (f64::from(v as f32)).to_bits(),
    }
}

impl EvalValue {
    /// A wrapped integer value.
    pub fn int(value: i128, width: u32) -> EvalValue {
        EvalValue::Int { value: wrap_int(value, width), width }
    }

    /// A canonicalized float value.
    pub fn float(v: f64, kind: FloatKind) -> EvalValue {
        EvalValue::Float { bits: canon_float_bits(v, kind), kind }
    }

    /// A canonicalized complex value.
    pub fn complex(re: f64, im: f64, kind: FloatKind) -> EvalValue {
        EvalValue::Complex {
            re: canon_float_bits(re, kind),
            im: canon_float_bits(im, kind),
            kind,
        }
    }

    /// The integer payload, if this is an integer.
    pub fn as_int(self) -> Option<i128> {
        match self {
            EvalValue::Int { value, .. } => Some(value),
            _ => None,
        }
    }

    /// The float payload, if this is a float.
    pub fn as_float(self) -> Option<f64> {
        match self {
            EvalValue::Float { bits, .. } => Some(f64::from_bits(bits)),
            _ => None,
        }
    }

    /// The `(re, im)` payload, if this is a complex number.
    pub fn as_complex(self) -> Option<(f64, f64)> {
        match self {
            EvalValue::Complex { re, im, .. } => Some((f64::from_bits(re), f64::from_bits(im))),
            _ => None,
        }
    }

    /// Whether this is an integer equal to zero (used for `i1` branching).
    pub fn is_true(self) -> bool {
        matches!(self, EvalValue::Int { value, .. } if value != 0)
    }

    /// A 64-bit fingerprint mixing the discriminant and payload; feeds the
    /// uninterpreted-function hash.
    pub fn fingerprint(self) -> u64 {
        match self {
            EvalValue::Int { value, width } => {
                mix(mix(0x11, value as u64), mix((value >> 64) as u64, u64::from(width)))
            }
            EvalValue::Float { bits, kind } => mix(mix(0x22, bits), kind.bit_width().into()),
            EvalValue::Complex { re, im, kind } => {
                mix(mix(0x33, re), mix(im, kind.bit_width().into()))
            }
            EvalValue::Opaque(token) => mix(0x44, token),
        }
    }
}

impl std::fmt::Display for EvalValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalValue::Int { value, width } => write!(f, "{value} : i{width}"),
            EvalValue::Float { bits, kind } => {
                write!(f, "{} : {}", f64::from_bits(*bits), kind.keyword())
            }
            EvalValue::Complex { re, im, kind } => write!(
                f,
                "({} + {}i) : complex<{}>",
                f64::from_bits(*re),
                f64::from_bits(*im),
                kind.keyword()
            ),
            EvalValue::Opaque(token) => write!(f, "opaque:{token:#018x}"),
        }
    }
}

/// A splitmix64-style combiner: deterministic, platform-independent, and
/// well-distributed enough for input derivation and fingerprints.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The FNV-1a offset basis: the hash of the empty string.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues an FNV-1a hash `h` over `bytes`: feeding a string in pieces
/// gives the same hash as feeding it whole.
fn fnv_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// FNV-1a over a string, for hashing op names, type spellings, and
/// attribute spellings into the input derivation.
pub fn hash_str(s: &str) -> u64 {
    fnv_extend(FNV_OFFSET, s.as_bytes())
}

/// [`hash_str`] of the qualified name `dialect.op`, without building it.
pub fn hash_qualified(dialect: &str, op: &str) -> u64 {
    fnv_extend(fnv_extend(fnv_extend(FNV_OFFSET, dialect.as_bytes()), b"."), op.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_wrapping_is_twos_complement() {
        assert_eq!(EvalValue::int(255, 8), EvalValue::int(-1, 8));
        assert_eq!(EvalValue::int(128, 8).as_int(), Some(-128));
        assert_eq!(EvalValue::int(i128::from(i32::MAX) + 1, 32).as_int(), Some(i128::from(i32::MIN)));
        // i1 sign-extends its single bit: the "true" pattern reads back -1.
        assert_eq!(EvalValue::int(3, 1).as_int(), Some(-1));
        assert!(EvalValue::int(3, 1).is_true());
        assert_eq!(EvalValue::int(2, 1).as_int(), Some(0));
    }

    #[test]
    fn floats_round_through_their_format() {
        // 0.1 is not exactly representable: f32 rounding must differ from f64.
        let f32v = EvalValue::float(0.1, FloatKind::F32);
        let f64v = EvalValue::float(0.1, FloatKind::F64);
        assert_ne!(f32v.as_float(), f64v.as_float());
        assert_eq!(f32v.as_float(), Some(f64::from(0.1f32)));
    }

    #[test]
    fn nan_is_canonical() {
        let a = EvalValue::float(f64::NAN, FloatKind::F64);
        let b = EvalValue::float(-f64::NAN, FloatKind::F32);
        assert_eq!(a, EvalValue::Float { bits: CANON_NAN, kind: FloatKind::F64 });
        assert_eq!(b, EvalValue::Float { bits: CANON_NAN, kind: FloatKind::F32 });
    }

    #[test]
    fn qualified_hash_matches_the_joined_name() {
        for (dialect, op) in [("cmath", "mul"), ("", ""), ("a.b", "c"), ("a", "b.c"), ("x", "")] {
            assert_eq!(hash_qualified(dialect, op), hash_str(&format!("{dialect}.{op}")));
        }
    }

    #[test]
    fn fingerprints_discriminate() {
        let vals = [
            EvalValue::int(1, 32),
            EvalValue::int(1, 64),
            EvalValue::float(1.0, FloatKind::F32),
            EvalValue::complex(1.0, 0.0, FloatKind::F32),
            EvalValue::Opaque(1),
        ];
        for (i, a) in vals.iter().enumerate() {
            for b in vals.iter().skip(i + 1) {
                assert_ne!(a.fingerprint(), b.fingerprint());
            }
        }
    }
}
