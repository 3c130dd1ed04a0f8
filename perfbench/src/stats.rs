//! Constant-memory reductions: a log-bucketed histogram for host timings
//! and rates, exact nearest-rank percentiles for the (bounded) simulated
//! samples of one batch, and the FNV-1a hasher behind the output digests.

/// A percentile together with the number of samples it was reduced from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The percentile's value (same unit as the samples).
    pub value: f64,
    /// How many samples the reduction saw.
    pub samples: u64,
}

/// Buckets per doubling: adjacent bucket edges differ by ~1.1%.
const SUB: f64 = 64.0;
/// Samples below 1 (in the caller's unit) share the first bucket.
const BUCKETS: usize = 64 * 64;

/// A log-bucketed histogram of positive samples.
///
/// Memory is fixed no matter how many samples are added, so a long run
/// does not grow the benchmark's own footprint. Percentiles interpolate
/// linearly by rank inside the bucket that holds them and are clamped to
/// the observed range.
#[derive(Clone)]
pub struct LogHist {
    counts: Vec<u64>,
    n: u64,
    min: f64,
    max: f64,
}

impl Default for LogHist {
    fn default() -> Self {
        LogHist::new()
    }
}

impl LogHist {
    /// An empty histogram.
    pub fn new() -> LogHist {
        LogHist {
            counts: vec![0; BUCKETS],
            n: 0,
            min: f64::INFINITY,
            max: 0.0,
        }
    }

    fn bucket(v: f64) -> usize {
        if v <= 1.0 {
            return 0;
        }
        ((v.log2() * SUB) as usize).min(BUCKETS - 1)
    }

    /// Adds one sample. Non-finite and negative samples are a bug in the
    /// caller.
    pub fn add(&mut self, v: f64) {
        assert!(v.is_finite() && v >= 0.0, "histogram sample {v}");
        self.counts[Self::bucket(v)] += 1;
        self.n += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// The `q`-quantile (`q` in `[0, 1]`), or `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<Percentile> {
        if self.n == 0 {
            return None;
        }
        let pick = |value| {
            Some(Percentile {
                value,
                samples: self.n,
            })
        };
        if q <= 0.0 {
            return pick(self.min);
        }
        if q >= 1.0 {
            return pick(self.max);
        }
        let rank = q * (self.n - 1) as f64;
        let mut below = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (below + c) as f64 > rank {
                let lo = if b == 0 { 0.0 } else { (b as f64 / SUB).exp2() };
                let hi = ((b + 1) as f64 / SUB).exp2();
                let frac = (rank - below as f64 + 0.5) / c as f64;
                return pick((lo + (hi - lo) * frac).clamp(self.min, self.max));
            }
            below += c;
        }
        pick(self.max)
    }
}

/// Nearest-rank percentile of an unsorted sample (`q` in `(0, 1]`); sorts
/// `samples` in place. `None` when empty.
pub fn nearest_rank(samples: &mut [f64], q: f64) -> Option<Percentile> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let rank = (q * samples.len() as f64).ceil() as usize;
    Some(Percentile {
        value: samples[rank.clamp(1, samples.len()) - 1],
        samples: samples.len() as u64,
    })
}

/// Median of a small sample (sorts in place); 0 for an empty one.
pub fn median(samples: &mut [f64]) -> f64 {
    nearest_rank(samples, 0.5).map_or(0.0, |p| p.value)
}

/// 64-bit FNV-1a. Implements [`std::fmt::Write`] so `Debug` output of
/// small values can be hashed without allocating.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

impl Fnv {
    /// A fresh hasher.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Hashes raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Hashes an integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Hashes a float by its bit pattern (so `-0.0 != 0.0`, like the
    /// bit-identity contract it checks).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_reduction_reports_its_sample_count() {
        let mut h = LogHist::new();
        assert_eq!(h.quantile(0.5), None);
        for v in 1..=1000 {
            h.add(v as f64);
        }
        let p50 = h.quantile(0.5).expect("non-empty");
        assert_eq!(p50.samples, 1000);
        assert!((p50.value - 500.0).abs() < 500.0 * 0.02, "{p50:?}");
        let p99 = h.quantile(0.99).expect("non-empty");
        assert_eq!(p99.samples, 1000);
        assert!((p99.value - 990.0).abs() < 990.0 * 0.02, "{p99:?}");

        let mut xs = vec![3.0, 1.0, 2.0, 5.0, 4.0];
        let p = nearest_rank(&mut xs, 0.95).expect("non-empty");
        assert_eq!(
            p,
            Percentile {
                value: 5.0,
                samples: 5
            }
        );
        assert_eq!(nearest_rank(&mut [], 0.5), None);
    }

    #[test]
    fn histogram_quantiles_stay_inside_the_observed_range() {
        let mut h = LogHist::new();
        for _ in 0..10 {
            h.add(0.25);
        }
        h.add(7.0);
        // Samples below 1 share the first bucket, so only the range holds.
        let p50 = h.quantile(0.5).expect("non-empty").value;
        assert!((0.25..=7.0).contains(&p50), "{p50}");
        assert_eq!(h.quantile(0.0).expect("non-empty").value, 0.25);
        assert_eq!(h.quantile(1.0).expect("non-empty").value, 7.0);
    }

    #[test]
    fn fnv_matches_the_reference_vector() {
        let mut h = Fnv::new();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
