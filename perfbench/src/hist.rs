//! A fixed-size log-linear latency histogram: exact below 256 ns, then
//! 128 sub-buckets per power of two (under 0.8% relative bucket width).
//! Quantiles interpolate linearly inside the bucket that holds the rank.

const EXACT: u64 = 256;
const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = EXACT as usize + (64 - 8) * SUB;

#[derive(Clone)]
pub struct Histogram {
    counts: Box<[u64]>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram { counts: vec![0; BUCKETS].into_boxed_slice(), total: 0 }
    }
}

fn index(v: u64) -> usize {
    if v < EXACT {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros();
    let sub = (v >> (exp - SUB_BITS)) as usize & (SUB - 1);
    EXACT as usize + (exp as usize - 8) * SUB + sub
}

/// `[low, high)` of bucket `i`.
fn bounds(i: usize) -> (f64, f64) {
    if i < EXACT as usize {
        return (i as f64, i as f64 + 1.0);
    }
    let k = i - EXACT as usize;
    let exp = (k / SUB) as u32 + 8;
    let width = (1u64 << (exp - SUB_BITS)) as f64;
    let low = (1u64 << exp) as f64 + (k % SUB) as f64 * width;
    (low, low + width)
}

impl Histogram {
    /// Records `weight` samples of `ns`.
    pub fn record(&mut self, ns: u64, weight: u64) {
        self.counts[index(ns)] += weight;
        self.total += weight;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile (0..=1) in nanoseconds; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.total as f64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (seen + c) as f64 >= rank {
                let (low, high) = bounds(i);
                let into = ((rank - seen as f64) / c as f64).clamp(0.0, 1.0);
                return low + into * (high - low);
            }
            seen += c;
        }
        bounds(BUCKETS - 1).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_range() {
        for i in 1..BUCKETS {
            assert_eq!(bounds(i - 1).1, bounds(i).0, "bucket {i}");
        }
        for v in [0, 1, 255, 256, 257, 1000, 65_535, 1 << 40, u64::MAX] {
            let (low, high) = bounds(index(v));
            assert!(low <= v as f64 && (v as f64) < high || v == u64::MAX, "{v}");
        }
    }

    #[test]
    fn quantiles_are_within_a_bucket_of_exact() {
        let mut h = Histogram::default();
        for v in 1..=10_000u64 {
            h.record(v * 10, 1);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!((p50 - 50_000.0).abs() / 50_000.0 < 0.01, "{p50}");
        assert!((p99 - 99_000.0).abs() / 99_000.0 < 0.01, "{p99}");
        assert_eq!(h.count(), 10_000);
    }
}
