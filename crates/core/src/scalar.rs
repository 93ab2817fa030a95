//! Bit-exact decomposition and re-encoding of individual f64 values.
//!
//! A double-precision value is `(−1)^s · (1.b₅₁…b₀) · 2^(E−1023)` (§II.C).  The ReFloat
//! conversion keeps the sign, re-expresses the exponent as an offset from a per-block
//! base `eb`, and keeps only the leading `f` fraction bits (Fig. 5b).  [`Quantizer`] is
//! that per-scalar conversion, written once on the bit pattern: the block encoder, the
//! vector converter and [`requantize`] all call it.  Block-level base selection lives
//! in [`crate::block`].

use crate::format::{max_offset_for_bits, RoundingMode, UnderflowMode};

const SIGN_MASK: u64 = 1 << 63;
const FRACTION_MASK: u64 = (1 << 52) - 1;

/// The sign / exponent / fraction decomposition of a finite nonzero f64.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decomposed {
    /// `true` for negative values.
    pub negative: bool,
    /// Unbiased binary exponent `floor(log2 |v|)`.
    pub exponent: i32,
    /// Normalized significand in `[1, 2)`.
    pub fraction: f64,
}

/// The unbiased exponent `floor(log2 |v|)` of a finite nonzero value, read from its bit
/// pattern (subnormals included).  `None` for zero and for NaN/infinities.
#[inline]
pub fn exponent(v: f64) -> Option<i32> {
    normalized(v.to_bits()).map(|(e, _)| e)
}

/// `(floor(log2 |v|), fraction field of the normalized significand)` for the bits of a
/// finite nonzero value; subnormals are shifted up so their leading one is implicit.
#[inline(always)]
fn normalized(bits: u64) -> Option<(i32, u64)> {
    let biased = ((bits >> 52) & 0x7ff) as i32;
    let fraction = bits & FRACTION_MASK;
    match biased {
        1..=0x7fe => Some((biased - 1023, fraction)),
        0 if fraction != 0 => {
            // value = fraction · 2^−1074 with its leading one at bit `msb`.
            let msb = 63 - fraction.leading_zeros() as i32;
            Some((msb - 1074, (fraction << (52 - msb)) & FRACTION_MASK))
        }
        _ => None,
    }
}

/// Decomposes a finite value into sign, unbiased exponent and normalized fraction.
/// Returns `None` for zero (which has no exponent) and for NaN/infinities.
pub fn decompose(v: f64) -> Option<Decomposed> {
    let exponent = exponent(v)?;
    Some(Decomposed {
        negative: v < 0.0,
        exponent,
        fraction: v.abs() / pow2(exponent),
    })
}

/// `2^e` as an f64, exact over the whole double-precision range: subnormal powers
/// below `2^−1022`, 0 below `2^−1074` and infinity above `2^1023`.
pub fn pow2(e: i32) -> f64 {
    match e {
        -1022..=1023 => f64::from_bits(((e + 1023) as u64) << 52),
        -1074..=-1023 => f64::from_bits(1 << (e + 1074)),
        i32::MIN..=-1075 => 0.0,
        _ => f64::INFINITY,
    }
}

/// Quantizes a normalized fraction in `[1, 2)` to `f` explicit fraction bits.
///
/// Truncation keeps the leading bits (the paper's rule); round-to-nearest may round up
/// to exactly 2.0, in which case the caller is responsible for renormalizing.
pub fn quantize_fraction(fraction: f64, f_bits: u32, mode: RoundingMode) -> f64 {
    debug_assert!(
        (1.0..2.0).contains(&fraction),
        "fraction {fraction} must be in [1, 2)"
    );
    let scale = (1u64 << f_bits) as f64;
    match mode {
        RoundingMode::Truncate => ((fraction - 1.0) * scale).floor() / scale + 1.0,
        RoundingMode::RoundNearest => ((fraction - 1.0) * scale).round() / scale + 1.0,
    }
}

/// Where an element landed relative to its base's exponent window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Zero, NaN or an infinity: no exponent, encoded as +0.
    NoExponent,
    /// The exponent offset fits the window.
    InWindow,
    /// The offset was clamped to the top or bottom of the window.
    Saturated,
    /// The offset fell below the window and the value was flushed to +0.
    Flushed,
}

/// Placement counts over a run of conversions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConversionStats {
    /// Number of elements whose exponent offset saturated (above or below the window).
    pub saturated: usize,
    /// Number of elements flushed to zero (only in `FlushToZero` mode).
    pub flushed: usize,
    /// Number of nonzero elements converted.
    pub nonzero: usize,
}

impl ConversionStats {
    #[inline(always)]
    fn record(&mut self, placement: Placement) {
        self.nonzero += (placement != Placement::NoExponent) as usize;
        self.saturated += (placement == Placement::Saturated) as usize;
        self.flushed += (placement == Placement::Flushed) as usize;
    }
}

/// One value re-encoded against an exponent base by [`Quantizer::encode`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Encoded {
    /// The decoded (lossy) value `(−1)^s · 1.code · 2^(base + offset)`.
    pub value: f64,
    /// Sign bit (`false` for values without an exponent).
    pub negative: bool,
    /// The stored exponent offset, within `±max_offset` (0 when flushed).
    pub offset: i32,
    /// The retained fraction bits as an integer in `[0, 2^f)` (0 when flushed),
    /// saturating at `u32::MAX` when `f > 32`.
    pub code: u32,
    /// How the offset related to the window.
    pub placement: Placement,
}

impl Encoded {
    const ZERO: Encoded = Encoded {
        value: 0.0,
        negative: false,
        offset: 0,
        code: 0,
        placement: Placement::NoExponent,
    };
}

/// The ReFloat scalar conversion for one `(e, f)` field width and rule set, computed
/// on the bit pattern (Eq. 4–7): the result is
/// `(−1)^s · q(fraction) · 2^(base + clamp(exponent − base))`.
///
/// * An in-window normal value keeps its own bits with the low `52 − f` fraction
///   bits cleared; a saturated one takes the pinned exponent with its own fraction.
/// * Round-to-nearest is an integer add at the first dropped bit.  A carry out of
///   the fraction moves into the exponent when the offset is in the window and below
///   the top; at a saturated or top offset it clamps the fraction to `2 − 2^(−f)`.
/// * Subnormal inputs are normalized first; results outside the normal exponent
///   range are `q(fraction) · 2^exp` rounded as one f64 product.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quantizer {
    max_offset: i32,
    /// Fraction bits dropped, `52 − f`.
    dropped: u32,
    /// The retained high `f` bits of the fraction field.
    kept: u64,
    /// Added before dropping: half of the last kept bit, or 0 when truncating.
    round_increment: u64,
    flush: bool,
}

impl Quantizer {
    /// A quantizer with `e_bits` of saturating signed offset and `f_bits` of fraction.
    ///
    /// # Panics
    /// Panics if `f_bits > 52`.
    pub fn new(e_bits: u32, f_bits: u32, rounding: RoundingMode, underflow: UnderflowMode) -> Self {
        assert!(f_bits <= 52, "Quantizer: f_bits must be ≤ 52, got {f_bits}");
        let dropped = 52 - f_bits;
        let round_increment = match rounding {
            RoundingMode::RoundNearest if dropped > 0 => 1 << (dropped - 1),
            _ => 0,
        };
        Quantizer {
            max_offset: max_offset_for_bits(e_bits),
            dropped,
            kept: FRACTION_MASK >> dropped << dropped,
            round_increment,
            flush: underflow == UnderflowMode::FlushToZero,
        }
    }

    /// Re-encodes `v` against the exponent base `base`.
    #[inline(always)]
    pub fn encode(&self, v: f64, base: i32) -> Encoded {
        let bits = v.to_bits();
        let Some((exponent, fraction)) = normalized(bits) else {
            return Encoded::ZERO;
        };
        let negative = bits & SIGN_MASK != 0;
        let max = self.max_offset;
        let offset = exponent - base;
        let (clamped, placement) = if offset > max {
            (max, Placement::Saturated)
        } else if offset < -max {
            if self.flush {
                return Encoded {
                    negative,
                    placement: Placement::Flushed,
                    ..Encoded::ZERO
                };
            }
            (-max, Placement::Saturated)
        } else {
            (offset, Placement::InWindow)
        };
        let rounded = fraction + self.round_increment;
        let (kept_fraction, stored) = if rounded <= FRACTION_MASK {
            (rounded & self.kept, clamped)
        } else if placement == Placement::InWindow && clamped < max {
            (0, clamped + 1)
        } else {
            (self.kept, clamped)
        };
        let exp = base + stored;
        let value = if (-1022..=1023).contains(&exp) {
            f64::from_bits((bits & SIGN_MASK) | (((exp + 1023) as u64) << 52) | kept_fraction)
        } else {
            let magnitude = f64::from_bits((1023 << 52) | kept_fraction) * pow2(exp);
            if negative {
                -magnitude
            } else {
                magnitude
            }
        };
        Encoded {
            value,
            negative,
            offset: stored,
            code: (kept_fraction >> self.dropped).min(u32::MAX as u64) as u32,
            placement,
        }
    }

    /// Re-encodes `values`, which share the exponent base `base`, into `out` and
    /// adds their placements to `stats`.  Each output is bitwise
    /// `self.encode(v, base).value`.
    ///
    /// # Panics
    /// Panics if `out.len() != values.len()`.
    pub fn encode_segment(
        &self,
        values: &[f64],
        base: i32,
        out: &mut [f64],
        stats: &mut ConversionStats,
    ) {
        assert_eq!(values.len(), out.len(), "encode_segment: length mismatch");
        // A normal value with offset in [−max, max) keeps its exponent unless
        // rounding carries into it, and a carry there is absorbed: the result is its
        // own bits plus the rounding increment, with the dropped bits cleared.  When
        // the whole window lies in the normal range that covers every such value;
        // the rest (top offset, saturated, zero, non-finite, subnormal) take
        // `encode`.
        let max = self.max_offset;
        let biased_base = base + 1023;
        let window = if biased_base - max >= 1 && biased_base + max <= 0x7fe {
            2 * max as u32
        } else {
            0
        };
        let mask = !FRACTION_MASK | self.kept;
        for (&v, o) in values.iter().zip(out.iter_mut()) {
            let bits = v.to_bits();
            let magnitude = bits & !SIGN_MASK;
            let offset = (magnitude >> 52) as i32 - biased_base;
            if ((offset + max) as u32) < window {
                *o = f64::from_bits(
                    (bits & SIGN_MASK) | ((magnitude + self.round_increment) & mask),
                );
                stats.nonzero += 1;
            } else {
                let encoded = self.encode(v, base);
                *o = encoded.value;
                stats.record(encoded.placement);
            }
        }
    }
}

/// Re-encodes a single value against an exponent base `eb` with `e_bits` of saturating
/// signed offset and `f_bits` of fraction, returning the decoded (lossy) f64.
///
/// This is the scalar kernel of the ReFloat conversion (Eq. 4–7): the result equals
/// `(−1)^s · q(fraction) · 2^(eb + clamp(exponent − eb))`; see [`Quantizer`].
pub fn requantize(
    v: f64,
    eb: i32,
    e_bits: u32,
    f_bits: u32,
    rounding: RoundingMode,
    underflow: UnderflowMode,
) -> f64 {
    Quantizer::new(e_bits, f_bits, rounding, underflow)
        .encode(v, eb)
        .value
}

/// The worst-case relative error of an `f`-bit truncated fraction: `2^(−f)`.
///
/// Useful for tests and for the error-model discussion in the documentation.
pub fn fraction_truncation_error_bound(f_bits: u32) -> f64 {
    pow2(-(f_bits as i32))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn decompose_known_values() {
        let d = decompose(6.0).unwrap();
        assert!(!d.negative);
        assert_eq!(d.exponent, 2);
        assert!((d.fraction - 1.5).abs() < 1e-15);

        let d = decompose(-0.75).unwrap();
        assert!(d.negative);
        assert_eq!(d.exponent, -1);
        assert!((d.fraction - 1.5).abs() < 1e-15);

        assert_eq!(decompose(0.0), None);
        assert_eq!(decompose(f64::NAN), None);
        assert_eq!(decompose(f64::INFINITY), None);
    }

    #[test]
    fn pow2_matches_powi_in_normal_range() {
        for e in [-1022, -300, -1, 0, 1, 52, 1023] {
            assert_eq!(pow2(e), 2.0f64.powi(e), "e = {e}");
        }
    }

    #[test]
    fn pow2_is_exact_outside_the_normal_range() {
        assert_eq!(pow2(-1074), 5e-324);
        assert_eq!(pow2(-1023), f64::MIN_POSITIVE / 2.0);
        assert_eq!(pow2(-1075), 0.0);
        assert_eq!(pow2(1024), f64::INFINITY);
    }

    #[test]
    fn subnormals_decompose_to_their_true_exponent() {
        let d = decompose(5e-324).unwrap();
        assert_eq!((d.exponent, d.fraction), (-1074, 1.0));
        let d = decompose(-3.0 * 5e-324).unwrap();
        assert_eq!((d.negative, d.exponent, d.fraction), (true, -1073, 1.5));
        assert_eq!(exponent(f64::MIN_POSITIVE / 2.0), Some(-1023));
        assert_eq!(exponent(0.0), None);
        assert_eq!(exponent(f64::NAN), None);
    }

    #[test]
    fn subnormal_inputs_requantize_to_finite_values() {
        // Before subnormal powers of two were built from bits, every subnormal
        // decomposed to an infinite fraction.
        for v in [5e-324, -5e-324, f64::MIN_POSITIVE / 3.0] {
            let q = requantize(
                v,
                -1070,
                3,
                4,
                RoundingMode::RoundNearest,
                UnderflowMode::Saturate,
            );
            assert!(q.is_finite() && q != 0.0, "{v:e} -> {q:e}");
            assert_eq!(q.is_sign_negative(), v < 0.0);
        }
        assert_eq!(
            requantize(
                5e-324,
                -1074,
                3,
                4,
                RoundingMode::Truncate,
                UnderflowMode::Saturate
            ),
            5e-324
        );
    }

    #[test]
    fn quantize_fraction_truncates_and_rounds() {
        // 1.6875 = 1.1011₂; with 2 fraction bits truncation gives 1.10₂ = 1.5,
        // rounding gives 1.11₂ = 1.75.
        assert_eq!(quantize_fraction(1.6875, 2, RoundingMode::Truncate), 1.5);
        assert_eq!(
            quantize_fraction(1.6875, 2, RoundingMode::RoundNearest),
            1.75
        );
        // With 0 bits everything becomes 1.0 under truncation.
        assert_eq!(quantize_fraction(1.999, 0, RoundingMode::Truncate), 1.0);
        // Already representable values are unchanged.
        assert_eq!(quantize_fraction(1.5, 4, RoundingMode::Truncate), 1.5);
    }

    #[test]
    fn requantize_reproduces_paper_eq6_eq7_example() {
        // Eq. (6)->(7): with eb = 8 and ReFloat(·, 2, 2):
        //   -1.1111·2^7 -> -1.11·2^-1·2^8 = -224.0     336.0 -> 320.0
        //   -1.0000·2^9 -> -512.0                       136.0 -> 128.0
        let eb = 8;
        assert_eq!(
            requantize(
                -248.0,
                eb,
                2,
                2,
                RoundingMode::Truncate,
                UnderflowMode::Saturate
            ),
            -224.0
        );
        assert_eq!(
            requantize(
                336.0,
                eb,
                2,
                2,
                RoundingMode::Truncate,
                UnderflowMode::Saturate
            ),
            320.0
        );
        assert_eq!(
            requantize(
                -512.0,
                eb,
                2,
                2,
                RoundingMode::Truncate,
                UnderflowMode::Saturate
            ),
            -512.0
        );
        assert_eq!(
            requantize(
                136.0,
                eb,
                2,
                2,
                RoundingMode::Truncate,
                UnderflowMode::Saturate
            ),
            128.0
        );
    }

    #[test]
    fn requantize_saturates_and_flushes_out_of_window_values() {
        // eb = 0, 3 offset bits -> representable exponents [-3, 3].
        let huge = 1024.0; // exponent 10, above the window
        let sat = requantize(
            huge,
            0,
            3,
            4,
            RoundingMode::Truncate,
            UnderflowMode::Saturate,
        );
        assert_eq!(sat, 8.0); // clamped to 2^3 with fraction 1.0
        let tiny = 2.0f64.powi(-20) * 1.5;
        let sat_lo = requantize(
            tiny,
            0,
            3,
            4,
            RoundingMode::Truncate,
            UnderflowMode::Saturate,
        );
        assert_eq!(sat_lo, 1.5 * 2.0f64.powi(-3));
        let flushed = requantize(
            tiny,
            0,
            3,
            4,
            RoundingMode::Truncate,
            UnderflowMode::FlushToZero,
        );
        assert_eq!(flushed, 0.0);
    }

    #[test]
    fn requantize_zero_and_exact_values() {
        assert_eq!(
            requantize(
                0.0,
                5,
                3,
                3,
                RoundingMode::Truncate,
                UnderflowMode::Saturate
            ),
            0.0
        );
        // A value exactly representable in the window survives untouched.
        assert_eq!(
            requantize(
                1.5,
                0,
                3,
                4,
                RoundingMode::Truncate,
                UnderflowMode::Saturate
            ),
            1.5
        );
        assert_eq!(
            requantize(
                -3.0,
                0,
                3,
                4,
                RoundingMode::Truncate,
                UnderflowMode::Saturate
            ),
            -3.0
        );
    }

    #[test]
    fn round_nearest_carry_at_saturated_offset_clamps_to_max_fraction() {
        // Regression: with eb = 0, e = 3 (max offset 3) and f = 8, the value
        // (2 − 2^−9)·2^3 rounds its fraction up to 2.0 while the offset is already
        // saturated.  The carry cannot go into the exponent, so the result must clamp
        // to the max representable fraction (2 − 2^−8)·2^3 — not halve to 1.0·2^3.
        let v = (2.0 - pow2(-9)) * 8.0;
        let q = requantize(
            v,
            0,
            3,
            8,
            RoundingMode::RoundNearest,
            UnderflowMode::Saturate,
        );
        assert_eq!(q, (2.0 - pow2(-8)) * 8.0);
        let ratio = q / v;
        assert!(
            ratio >= 1.0 - pow2(-8),
            "saturated carry must not halve the value: ratio = {ratio}"
        );

        // Same mechanism when the value saturates from *above* the window and its
        // fraction rounds up to 2.0.
        let v = (2.0 - pow2(-9)) * 2.0f64.powi(6); // offset 6 > max_off 3
        let q = requantize(
            v,
            0,
            3,
            8,
            RoundingMode::RoundNearest,
            UnderflowMode::Saturate,
        );
        assert_eq!(q, (2.0 - pow2(-8)) * 8.0);

        // f = 0 degenerates gracefully: the only representable fraction is 1.0.
        let q0 = requantize(
            1.75 * 8.0,
            0,
            3,
            0,
            RoundingMode::RoundNearest,
            UnderflowMode::Saturate,
        );
        assert_eq!(q0, 8.0);
    }

    #[test]
    fn round_nearest_carry_below_the_window_clamps_at_the_saturation_floor() {
        // A value *below* the window whose fraction rounds up to 2.0 must not
        // renormalize out of the saturation floor: with eb = 0, e = 2 (window
        // [-1, 1]) and f = 0, the value 1.6·2^−3 saturates to offset −1 and its
        // fraction rounds to 2.0 — the result must clamp to (2 − 2^0)·2^−1 = 0.5,
        // not renormalize to 1.0·2^0 (double the floor cap).
        let q = requantize(
            1.6 * pow2(-3),
            0,
            2,
            0,
            RoundingMode::RoundNearest,
            UnderflowMode::Saturate,
        );
        assert_eq!(q, 0.5);

        // With fraction bits: 1.99·2^−12 under e = 3, f = 3 saturates to offset −3
        // and rounds its fraction to 2.0 -> clamp to (2 − 2^−3)·2^−3 = 0.234375.
        let q = requantize(
            1.99 * pow2(-12),
            0,
            3,
            3,
            RoundingMode::RoundNearest,
            UnderflowMode::Saturate,
        );
        assert_eq!(q, (2.0 - pow2(-3)) * pow2(-3));
        // The below-window result never exceeds the saturation-floor cap.
        assert!(q <= (2.0 - pow2(-3)) * pow2(-3));
    }

    #[test]
    fn saturated_requantize_is_idempotent_and_monotone_near_the_top() {
        // The clamped maximum is itself representable, so re-encoding is a fixed point.
        let top = (2.0 - pow2(-8)) * 8.0;
        let q = requantize(
            top,
            0,
            3,
            8,
            RoundingMode::RoundNearest,
            UnderflowMode::Saturate,
        );
        assert_eq!(q, top);
        // Magnitudes just below the carry threshold must not map above the clamped max.
        let below = (2.0 - pow2(-7)) * 8.0;
        let qb = requantize(
            below,
            0,
            3,
            8,
            RoundingMode::RoundNearest,
            UnderflowMode::Saturate,
        );
        assert!(qb <= q);
    }

    #[test]
    fn round_nearest_carry_renormalizes() {
        // 1.96875 with 2 round-to-nearest fraction bits rounds up to 2.0 -> 1.0·2^(e+1).
        let v = 1.96875 * 4.0; // exponent 2
        let q = requantize(
            v,
            2,
            3,
            2,
            RoundingMode::RoundNearest,
            UnderflowMode::Saturate,
        );
        assert_eq!(q, 8.0);
    }

    proptest! {
        #[test]
        fn truncation_error_is_bounded_when_offset_in_window(
            sign in proptest::bool::ANY,
            frac in 1.0f64..2.0,
            exp in -8i32..8,
            f_bits in 0u32..12,
        ) {
            // With eb = 0 and a wide-enough offset window the only loss is the fraction
            // truncation, bounded by 2^-f relative error (the bound quoted in §III.D).
            let v = if sign { -frac } else { frac } * pow2(exp);
            let q = requantize(v, 0, 5, f_bits, RoundingMode::Truncate, UnderflowMode::Saturate);
            let rel = ((q - v) / v).abs();
            prop_assert!(rel <= fraction_truncation_error_bound(f_bits) + 1e-15,
                "v = {v}, q = {q}, rel = {rel}");
            // Truncation never increases the magnitude.
            prop_assert!(q.abs() <= v.abs() + 1e-300);
            // Sign is always preserved.
            prop_assert_eq!(q.is_sign_negative(), v.is_sign_negative());
        }

        #[test]
        fn requantize_is_idempotent(
            frac in 1.0f64..2.0,
            exp in -6i32..6,
            f_bits in 0u32..10,
        ) {
            let v = frac * pow2(exp);
            let q1 = requantize(v, 0, 4, f_bits, RoundingMode::Truncate, UnderflowMode::Saturate);
            let q2 = requantize(q1, 0, 4, f_bits, RoundingMode::Truncate, UnderflowMode::Saturate);
            prop_assert_eq!(q1, q2);
        }
    }
}
