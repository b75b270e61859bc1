//! Small numeric helpers: percentiles, medians and the output digest.

use std::collections::BTreeMap;

/// Nearest-rank percentile (`q` in `[0, 1]`) of unsorted samples; 0 when
/// there are none.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Geometric mean over groups of each group's median, for `(group,
/// value)` samples of positive values: the typical group's median. Unlike
/// a pooled median it does not jump between clusters when groups of very
/// different cost contribute different numbers of samples; 0 when there
/// are none.
pub fn group_median_geomean(samples: &[(usize, f64)]) -> f64 {
    let mut groups: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for &(g, v) in samples {
        groups.entry(g).or_default().push(v);
    }
    if groups.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = groups.values().map(|vs| median(vs).ln()).sum();
    (log_sum / groups.len() as f64).exp()
}

/// Median of unsorted samples; 0 when there are none.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// FNV-1a over 64-bit words: the digest of a round's simulated results.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Folds one word in.
    pub fn push(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn group_medians_combine_geometrically() {
        // Group 0: median 100 from three samples; group 1: median 1 from
        // nine. The pooled median would be 1.
        let mut xs = vec![(0, 90.0), (0, 100.0), (0, 110.0)];
        xs.extend((0..9).map(|_| (1, 1.0)));
        assert!((group_median_geomean(&xs) - 10.0).abs() < 1e-9);
        assert_eq!(group_median_geomean(&[]), 0.0);
    }
}
