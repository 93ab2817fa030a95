//! The vector converter (Fig. 6d): per-segment re-encoding of the solver vectors.
//!
//! Before every SpMV the input vector is split into segments of length `2^b`; each
//! segment gets its own exponent base `ebv` (the rounded mean of its element exponents,
//! the same Eq. 5 optimum used for matrix blocks), and each element is re-encoded with
//! `ev` offset bits and `fv` fraction bits.  Because the base is recomputed *every
//! iteration*, the representable window tracks the solver vectors as they shrink toward
//! convergence — this is exactly the property the Feinberg baseline lacks (§III.C).

use crate::block::optimal_exponent_base;
use crate::format::ReFloatConfig;
pub use crate::scalar::ConversionStats;
use crate::scalar::Quantizer;

/// Converts solver vectors into ReFloat segment encoding.
///
/// The converter owns its scratch statistics; one instance per operator is enough.
#[derive(Debug, Clone)]
pub struct VectorConverter {
    config: ReFloatConfig,
    /// Per-segment exponent bases of the most recent conversion.
    last_bases: Vec<i32>,
    /// Statistics of the most recent conversion.
    last_stats: ConversionStats,
}

impl VectorConverter {
    /// Creates a converter for the given format configuration.
    pub fn new(config: ReFloatConfig) -> Self {
        VectorConverter {
            config,
            last_bases: Vec::new(),
            last_stats: ConversionStats::default(),
        }
    }

    /// The format configuration in use.
    pub fn config(&self) -> &ReFloatConfig {
        &self.config
    }

    /// The per-segment exponent bases `ebv` chosen by the most recent conversion.
    pub fn last_bases(&self) -> &[i32] {
        &self.last_bases
    }

    /// Statistics of the most recent conversion.
    pub fn last_stats(&self) -> &ConversionStats {
        &self.last_stats
    }

    /// Quantizes `x` segment-by-segment into `out` (both length `n`), returning nothing;
    /// bases and statistics are retrievable afterwards.
    ///
    /// # Panics
    /// Panics if `out.len() != x.len()`.
    pub fn convert_into(&mut self, x: &[f64], out: &mut [f64]) {
        assert_eq!(
            x.len(),
            out.len(),
            "vector converter: output length mismatch"
        );
        let seg = self.config.block_size();
        self.last_bases.clear();
        self.last_bases.reserve(x.len().div_ceil(seg));
        let config = &self.config;
        let quantizer = Quantizer::new(config.ev, config.fv, config.rounding, config.underflow);
        let mut stats = ConversionStats::default();
        for (segment, out) in x.chunks(seg).zip(out.chunks_mut(seg)) {
            let ebv = optimal_exponent_base(segment);
            self.last_bases.push(ebv);
            quantizer.encode_segment(segment, ebv, out, &mut stats);
        }
        self.last_stats = stats;
    }

    /// Allocating convenience wrapper around [`convert_into`](Self::convert_into).
    pub fn convert(&mut self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; x.len()];
        self.convert_into(x, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::UnderflowMode;
    use proptest::prelude::*;
    use refloat_sparse::vecops;

    #[test]
    fn conversion_error_is_small_for_well_scaled_segments() {
        let config = ReFloatConfig::new(3, 3, 8, 3, 8);
        let mut conv = VectorConverter::new(config);
        let x: Vec<f64> = (0..64).map(|i| ((i as f64) * 0.37).sin() + 1.5).collect();
        let q = conv.convert(&x);
        assert!(vecops::rel_err(&q, &x) < 2.0 * 2.0f64.powi(-8));
        assert_eq!(conv.last_bases().len(), 8);
        assert_eq!(conv.last_stats().flushed, 0);
    }

    #[test]
    fn bases_adapt_per_segment_and_per_call() {
        // Two segments with wildly different scales get different bases; scaling the
        // vector between calls moves the bases — the adaptivity the paper relies on.
        let config = ReFloatConfig::new(2, 3, 8, 3, 8);
        let mut conv = VectorConverter::new(config);
        let mut x = vec![1.0e-9; 4];
        x.extend_from_slice(&[1.0e9; 4]);
        let q1 = conv.convert(&x);
        let bases1 = conv.last_bases().to_vec();
        assert!(bases1[0] < -25 && bases1[1] > 25, "bases {bases1:?}");
        assert!(vecops::rel_err(&q1, &x) < 1e-2);

        let scaled: Vec<f64> = x.iter().map(|v| v * 2.0f64.powi(-40)).collect();
        let q2 = conv.convert(&scaled);
        let bases2 = conv.last_bases().to_vec();
        assert_eq!(bases2[0], bases1[0] - 40);
        assert!(vecops::rel_err(&q2, &scaled) < 1e-2);
    }

    #[test]
    fn zeros_and_short_tail_segments_are_handled() {
        let config = ReFloatConfig::new(3, 3, 8, 3, 8);
        let mut conv = VectorConverter::new(config);
        let x = vec![0.0; 11]; // not a multiple of the segment length
        let q = conv.convert(&x);
        assert_eq!(q, x);
        assert_eq!(conv.last_bases().len(), 2);
        assert_eq!(conv.last_stats().nonzero, 0);
    }

    #[test]
    fn saturation_vs_flush_statistics() {
        let config = ReFloatConfig::new(2, 2, 8, 2, 8); // offsets only span ±1
        let x = vec![1.0, 2.0f64.powi(-30), 4.0, 1.0];
        let mut sat = VectorConverter::new(config);
        let _ = sat.convert(&x);
        assert!(sat.last_stats().saturated >= 1);
        assert_eq!(sat.last_stats().flushed, 0);

        let mut ftz = VectorConverter::new(config.with_underflow(UnderflowMode::FlushToZero));
        let q = ftz.convert(&x);
        assert_eq!(ftz.last_stats().flushed, 1);
        assert_eq!(q[1], 0.0);
    }

    fn round_nearest(e: u32, f: u32) -> ReFloatConfig {
        ReFloatConfig::new(2, e, f, e, f).with_rounding(crate::format::RoundingMode::RoundNearest)
    }

    #[test]
    fn round_nearest_carry_at_saturated_offset_clamps_to_max_fraction() {
        // Each segment's exponents average to a base of 0.  A fraction that rounds up
        // to 2.0 at the top offset (3 with e = 3), or above the window, cannot carry
        // into the exponent: it clamps to (2 − 2^−8)·2^3 instead of halving to 2^3.
        let top = (2.0 - 2.0f64.powi(-8)) * 8.0;
        let mut conv = VectorConverter::new(round_nearest(3, 8));
        let at_top = conv.convert(&[(2.0 - 2.0f64.powi(-9)) * 8.0, 0.5, 0.5, 0.5]);
        assert_eq!((conv.last_bases(), at_top[0]), (&[0][..], top));
        let above = conv.convert(&[(2.0 - 2.0f64.powi(-9)) * 64.0, 0.25, 0.25, 0.25]);
        assert_eq!((conv.last_bases(), above[0]), (&[0][..], top));
        assert_eq!(conv.last_stats().saturated, 1);
        // f = 0: the only representable fraction is 1.0.
        let mut conv0 = VectorConverter::new(round_nearest(3, 0));
        assert_eq!(conv0.convert(&[1.75 * 8.0, 0.5, 0.5, 0.5])[0], 8.0);
    }

    #[test]
    fn round_nearest_carry_below_the_window_clamps_at_the_saturation_floor() {
        // e = 2 (window ±1), f = 0: 1.6·2^−3 saturates to offset −1 and its fraction
        // rounds to 2.0; it must clamp to 0.5, not renormalize to 2^0.
        let mut conv = VectorConverter::new(round_nearest(2, 0));
        let q = conv.convert(&[1.6 * 0.125, 2.0, 2.0, 2.0]);
        assert_eq!((conv.last_bases(), q[0]), (&[0][..], 0.5));
        // e = 3, f = 3: 1.99·2^−12 clamps to (2 − 2^−3)·2^(ebv − 3).  With the
        // segment [1, 1, 1, 1.99·2^−12], ebv = −3 and the result is 0.029296875.
        let mut conv = VectorConverter::new(round_nearest(3, 3));
        let q = conv.convert(&[1.99 * 2.0f64.powi(-12), 16.0, 16.0, 16.0]);
        assert_eq!((conv.last_bases(), q[0]), (&[0][..], 1.875 * 0.125));
        let q = conv.convert(&[1.0, 1.0, 1.0, 1.99 * 2.0f64.powi(-12)]);
        assert_eq!((conv.last_bases(), q[3]), (&[-3][..], 0.029296875));
    }

    proptest! {
        #[test]
        fn conversion_preserves_signs_and_zero_pattern(
            x in proptest::collection::vec(-1e6f64..1e6, 1..200),
        ) {
            let mut conv = VectorConverter::new(ReFloatConfig::paper_default());
            let q = conv.convert(&x);
            prop_assert_eq!(q.len(), x.len());
            for (&orig, &quant) in x.iter().zip(q.iter()) {
                if orig == 0.0 {
                    prop_assert_eq!(quant, 0.0);
                } else if quant != 0.0 {
                    prop_assert_eq!(orig.is_sign_negative(), quant.is_sign_negative());
                }
            }
        }

        #[test]
        fn segment_error_is_bounded_relative_to_segment_max(
            x in proptest::collection::vec(0.5f64..2.0e3, 128),
        ) {
            // For positive segments spanning ≤ 12 binades, ev = 3 covers offsets ±3 from
            // the mean; elements further away saturate but the error stays bounded by
            // the segment maximum times 2^-fv plus the saturation window error.
            let config = ReFloatConfig::paper_default();
            let mut conv = VectorConverter::new(config);
            let q = conv.convert(&x);
            let max = x.iter().cloned().fold(0.0f64, f64::max);
            for (&orig, &quant) in x.iter().zip(q.iter()) {
                prop_assert!((quant - orig).abs() <= max, "orig {orig} quant {quant}");
            }
        }
    }
}
