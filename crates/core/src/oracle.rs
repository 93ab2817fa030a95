//! Test-only reference for the bit-level conversion in [`crate::scalar::Quantizer`].
//!
//! The oracle is the divide-based arithmetic the vector converter and the block
//! encoder used before the bit-level kernel: decompose into a fraction in `[1, 2)`,
//! quantize it in floating point, resolve a round-to-nearest carry, and multiply back
//! by a power of two.  It carries the saturating-carry rule of
//! [`requantize`](crate::scalar::requantize) and the exact subnormal powers of two, so
//! the kernel must match it bit for bit on every input.

use crate::block::ReFloatBlock;
use crate::format::{max_offset_for_bits, ReFloatConfig, RoundingMode, UnderflowMode};
use crate::scalar::{decompose, pow2, quantize_fraction};
use crate::vector::{ConversionStats, VectorConverter};
use proptest::prelude::*;
use refloat_sparse::blocked::Block;

/// One element through the reference arithmetic.
#[derive(Debug, Clone, Copy)]
enum Reference {
    NoExponent,
    Flushed {
        negative: bool,
    },
    Kept {
        negative: bool,
        saturated: bool,
        offset: i32,
        fraction: f64,
        value: f64,
    },
}

fn reference(
    v: f64,
    base: i32,
    e_bits: u32,
    f_bits: u32,
    rounding: RoundingMode,
    underflow: UnderflowMode,
) -> Reference {
    let Some(d) = decompose(v) else {
        return Reference::NoExponent;
    };
    let max_off = max_offset_for_bits(e_bits);
    let offset = d.exponent - base;
    let clamped = if offset > max_off {
        max_off
    } else if offset < -max_off {
        match underflow {
            UnderflowMode::Saturate => -max_off,
            UnderflowMode::FlushToZero => {
                return Reference::Flushed {
                    negative: d.negative,
                }
            }
        }
    } else {
        offset
    };
    let mut fraction = quantize_fraction(d.fraction, f_bits, rounding);
    let mut stored = clamped;
    if fraction >= 2.0 {
        if offset == clamped && clamped < max_off {
            fraction /= 2.0;
            stored += 1;
        } else {
            fraction = 2.0 - pow2(-(f_bits as i32));
        }
    }
    let magnitude = fraction * pow2(base + stored);
    Reference::Kept {
        negative: d.negative,
        saturated: offset != clamped,
        offset: stored,
        fraction,
        value: if d.negative { -magnitude } else { magnitude },
    }
}

fn reference_base(values: &[f64]) -> i32 {
    let exponents: Vec<i64> = values
        .iter()
        .filter_map(|&v| decompose(v))
        .map(|d| d.exponent as i64)
        .collect();
    if exponents.is_empty() {
        0
    } else {
        (exponents.iter().sum::<i64>() as f64 / exponents.len() as f64).round() as i32
    }
}

/// The reference vector conversion: outputs, per-segment bases and statistics.
fn reference_convert(x: &[f64], config: &ReFloatConfig) -> (Vec<f64>, Vec<i32>, ConversionStats) {
    let mut out = Vec::with_capacity(x.len());
    let mut bases = Vec::new();
    let mut stats = ConversionStats::default();
    for segment in x.chunks(config.block_size()) {
        let ebv = reference_base(segment);
        bases.push(ebv);
        for &v in segment {
            let r = reference(
                v,
                ebv,
                config.ev,
                config.fv,
                config.rounding,
                config.underflow,
            );
            out.push(match r {
                Reference::NoExponent => 0.0,
                Reference::Flushed { .. } => {
                    stats.nonzero += 1;
                    stats.flushed += 1;
                    0.0
                }
                Reference::Kept {
                    saturated, value, ..
                } => {
                    stats.nonzero += 1;
                    stats.saturated += saturated as usize;
                    value
                }
            });
        }
    }
    (out, bases, stats)
}

/// The reference block encoding: `(signs, offsets, fraction_codes, decoded)`.
fn reference_encode(
    vals: &[f64],
    config: &ReFloatConfig,
    eb: i32,
) -> (Vec<bool>, Vec<i8>, Vec<u32>, Vec<f64>) {
    let scale = (1u64 << config.f) as f64;
    let mut encoded = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for &v in vals {
        let (negative, offset, code, value) =
            match reference(v, eb, config.e, config.f, config.rounding, config.underflow) {
                Reference::NoExponent => (false, 0, 0, 0.0),
                Reference::Flushed { negative } => (negative, 0, 0, 0.0),
                Reference::Kept {
                    negative,
                    offset,
                    fraction,
                    value,
                    ..
                } => (
                    negative,
                    offset,
                    ((fraction - 1.0) * scale).round() as u32,
                    value,
                ),
            };
        encoded.0.push(negative);
        encoded.1.push(offset as i8);
        encoded.2.push(code);
        encoded.3.push(value);
    }
    encoded
}

pub(crate) fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn block_of(vals: &[f64]) -> Block {
    Block {
        block_row: 0,
        block_col: 0,
        rows: (0..vals.len()).map(|i| (i % 4) as u16).collect(),
        cols: (0..vals.len()).map(|i| (i / 4) as u16).collect(),
        vals: vals.to_vec(),
    }
}

/// Inputs that exercise every branch of the kernel: signed zeros, subnormals,
/// non-finite values, the extremes of the normal range, arbitrary bit patterns, and
/// values straddling a window around 1.
pub(crate) fn any_input() -> impl Strategy<Value = f64> {
    prop_oneof![
        prop_oneof![
            Just(0.0),
            Just(-0.0),
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(f64::MAX),
            Just(-f64::MAX),
            Just(f64::MIN_POSITIVE),
            Just(5e-324),
        ],
        (1u64..(1 << 52), proptest::bool::ANY)
            .prop_map(|(m, neg)| f64::from_bits(m | ((neg as u64) << 63))),
        (0u64..=u64::MAX).prop_map(f64::from_bits),
        (1.0f64..2.0, -24i32..24, proptest::bool::ANY).prop_map(|(m, e, neg)| {
            let sign = if neg { -1.0 } else { 1.0 };
            sign * m * pow2(e)
        }),
        (0u64..(1 << 52), 0i32..8, proptest::bool::ANY).prop_map(|(m, e, neg)| {
            // All-ones and near-all-ones fractions, which carry under rounding.
            let m = (1 << 52) - 1 - (m >> (e as u32 * 6));
            f64::from_bits(((neg as u64) << 63) | ((1023 + e as u64) << 52) | m)
        }),
    ]
}

pub(crate) fn any_config() -> impl Strategy<Value = ReFloatConfig> {
    (
        (1u32..=3, 0u32..=11, 0u32..=52),
        (0u32..=11, 0u32..=52),
        proptest::bool::ANY,
        proptest::bool::ANY,
    )
        .prop_map(|((b, e, f), (ev, fv), round, flush)| {
            ReFloatConfig::new(b, e, f, ev, fv)
                .with_rounding(if round {
                    RoundingMode::RoundNearest
                } else {
                    RoundingMode::Truncate
                })
                .with_underflow(if flush {
                    UnderflowMode::FlushToZero
                } else {
                    UnderflowMode::Saturate
                })
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn vector_converter_matches_the_reference_bitwise(
        config in any_config(),
        x in proptest::collection::vec(any_input(), 1..40),
    ) {
        let mut conv = VectorConverter::new(config);
        let out = conv.convert(&x);
        let (expected, bases, stats) = reference_convert(&x, &config);
        prop_assert_eq!(bits(&out), bits(&expected), "{} on {:?}", config, x);
        prop_assert_eq!(conv.last_bases(), &bases[..]);
        prop_assert_eq!(conv.last_stats(), &stats);
    }

    #[test]
    fn block_encoder_matches_the_reference_bitwise(
        config in any_config(),
        vals in proptest::collection::vec(any_input(), 1..40),
        base_shift in prop_oneof![Just(0i32), -1100i32..1100],
    ) {
        // The Eq. 5 base, and arbitrary explicit bases that push results out of the
        // normal exponent range.
        let block = block_of(&vals);
        let eb = reference_base(&vals) + base_shift;
        let enc = ReFloatBlock::encode_with_base(&block, &config, eb);
        let (signs, offsets, codes, decoded) = reference_encode(&vals, &config, eb);
        prop_assert_eq!(&enc.signs, &signs, "{} eb {} on {:?}", config, eb, vals);
        prop_assert_eq!(&enc.offsets, &offsets);
        prop_assert_eq!(&enc.fraction_codes, &codes);
        prop_assert_eq!(bits(&enc.decoded), bits(&decoded), "{} eb {} on {:?}", config, eb, vals);
    }
}

#[test]
fn finite_inputs_never_convert_or_encode_to_non_finite_values() {
    // Subnormals used to decompose to an infinite fraction.  (Round-to-nearest may
    // still carry the largest binade to infinity, like any f64 rounding.)
    let x = [
        5e-324,
        1.0,
        -3e-310,
        f64::MAX,
        -f64::MIN_POSITIVE,
        0.0,
        7.5e-320,
        2.0,
    ];
    for underflow in [UnderflowMode::Saturate, UnderflowMode::FlushToZero] {
        for fv in [0, 3, 8, 52] {
            let config = ReFloatConfig::new(2, 3, fv, 3, fv).with_underflow(underflow);
            let out = VectorConverter::new(config).convert(&x);
            assert!(out.iter().all(|v| v.is_finite()), "{config}: {out:?}");
            let enc = ReFloatBlock::encode(&block_of(&x), &config);
            assert!(
                enc.decoded.iter().all(|v| v.is_finite()),
                "{config}: {enc:?}"
            );
        }
    }
    let out = VectorConverter::new(ReFloatConfig::paper_default()).convert(&[5e-324, 1.0]);
    assert!(out[0] > 0.0 && out[0].is_finite(), "{out:?}");
}
