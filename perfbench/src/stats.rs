//! The benchmark's arithmetic: medians, the percentile rule, interval
//! unions for self time, and the outcome digest hash.

/// Median of `xs` (mean of the two middle values for an even count), or
/// `None` when `xs` is empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Harrell–Davis estimate of the median of `xs`, or `None` when `xs` is
/// empty: a mean of all order statistics, the `i`-th of `n` weighted by
/// the mass that a Beta((n+1)/2, (n+1)/2) density puts on
/// [(i-1)/n, i/n]. Unlike the sample median, it does not jump when the
/// one or two middle values change places with their neighbours.
pub fn hd_median(xs: &[f64]) -> Option<f64> {
    /// Simpson steps per order statistic (even).
    const STEPS: usize = 32;
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let a = (n + 1.0) / 2.0;
    // Scaled to 1 at t = 1/2, so large `n` does not underflow.
    let density = |t: f64| (4.0 * t * (1.0 - t)).powf(a - 1.0);
    let h = 1.0 / (n * STEPS as f64);
    let (mut sum, mut total) = (0.0, 0.0);
    for (i, x) in v.iter().enumerate() {
        let lo = i as f64 / n;
        let w: f64 = (0..=STEPS)
            .map(|k| {
                let c = match k {
                    0 => 1.0,
                    k if k == STEPS => 1.0,
                    k if k % 2 == 1 => 4.0,
                    _ => 2.0,
                };
                c * density(lo + k as f64 * h)
            })
            .sum();
        sum += w * x;
        total += w;
    }
    Some(sum / total)
}

/// Fewest samples that must lie beyond a reported percentile.
const TAIL_SAMPLES: usize = 10;

/// The `p`-th percentile of `xs` by nearest rank, reported only when at
/// least [`TAIL_SAMPLES`] samples lie beyond it: `n * (100 - p) / 100 >=
/// 10`, so p99 needs 1,000 samples and p50 needs 20.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    let n = xs.len();
    if n == 0 || (n as f64) * (100.0 - p) / 100.0 < TAIL_SAMPLES as f64 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    Some(v[rank.clamp(1, n) - 1])
}

/// Total length of the union of half-open intervals `[s, e)`, clipped to
/// `within`.
pub fn union_len(intervals: &[(u64, u64)], within: (u64, u64)) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(within.0), e.min(within.1)))
        .filter(|&(s, e)| s < e)
        .collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in v {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// A span's self time: its duration minus the part of it that the union
/// of its children's intervals covers (children of concurrent workers
/// may overlap; covered time counts once).
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    (span.1 - span.0) - union_len(children, span)
}

/// Geometric mean of positive values, or `None` when `xs` is empty.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

/// 64-bit FNV-1a: a fixed, platform-independent hash, so digests repeat
/// exactly across runs and builds.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mixes `bytes` in.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Mixes a word in.
    pub fn u64(&mut self, x: u64) -> &mut Self {
        self.bytes(&x.to_le_bytes())
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        // One slow round out of five does not move the median of rounds.
        assert_eq!(median(&[10.0, 10.5, 9.5, 16.0, 10.2]), Some(10.2));
    }

    #[test]
    fn hd_median_is_a_smooth_median() {
        assert_eq!(hd_median(&[]), None);
        assert_eq!(hd_median(&[7.0]), Some(7.0));
        // Many samples (a fault campaign pass has over a thousand ops).
        let many: Vec<f64> = (1..=2001).map(f64::from).collect();
        let m = hd_median(&many).expect("non-empty");
        assert!((m - 1001.0).abs() < 1e-6, "{m}");
        // Symmetric samples: the middle.
        let m = hd_median(&[5.0, 1.0, 3.0, 2.0, 4.0]).expect("non-empty");
        assert!((m - 3.0).abs() < 1e-9, "{m}");
        // Weighted towards the middle: the far value barely counts.
        let m = hd_median(&[1.0, 2.0, 3.0, 4.0, 10.0]).expect("non-empty");
        assert!(m > 3.0 && m < 3.5, "{m}");
        // Moving the middle value of a gapped sample across the gap
        // moves the estimate by a fraction of what it moves the sample
        // median.
        let lo = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 20.0, 21.0, 22.0, 23.0, 24.0];
        let mut hi = lo;
        hi[5] = 19.0;
        let shift = hd_median(&hi).expect("non-empty") - hd_median(&lo).expect("non-empty");
        let sample_shift = median(&hi).expect("non-empty") - median(&lo).expect("non-empty");
        assert!(
            shift > 0.0 && shift < 0.4 * sample_shift,
            "{shift} vs {sample_shift}"
        );
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(
            percentile(&xs, 99.0),
            None,
            "999 samples leave 9.99 beyond p99"
        );
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), Some(990.0));
        assert_eq!(percentile(&xs, 50.0), Some(500.0));
        assert_eq!(percentile(&xs[..19], 50.0), None);
        assert_eq!(percentile(&xs[..20], 50.0), Some(10.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Disjoint children.
        assert_eq!(self_time((0, 100), &[(10, 20), (30, 50)]), 70);
        // Overlapping children (two workers) count their overlap once.
        assert_eq!(self_time((0, 100), &[(10, 60), (40, 80)]), 30);
        // Nested and touching intervals merge.
        assert_eq!(self_time((0, 100), &[(10, 20), (12, 15), (20, 30)]), 80);
        // Children are clipped to the parent.
        assert_eq!(self_time((50, 100), &[(0, 60), (90, 200)]), 30);
        assert_eq!(self_time((0, 10), &[]), 10);
    }

    #[test]
    fn geomean_and_digest() {
        let g = geomean(&[2.0, 8.0]).expect("non-empty");
        assert!((g - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        let mut a = Fnv::default();
        a.u64(1).bytes(b"x");
        let mut b = Fnv::default();
        b.u64(1).bytes(b"y");
        assert_ne!(a.finish(), b.finish());
        assert_eq!(Fnv::default().bytes(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
