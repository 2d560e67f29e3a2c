//! Order statistics, the fixed-size latency histogram and the process
//! peak-RSS probe.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation
/// between closest ranks; `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// First and third quartiles with the same method as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method), so that spreads printed here match that definition.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return (f64::NAN, f64::NAN);
    }
    if n == 1 {
        return (sorted[0], sorted[0]);
    }
    let cut = |j: usize| -> f64 {
        // statistics.quantiles, method='exclusive', n=4: m = n + 1.
        let m = (n + 1) as f64;
        let pos = j as f64 * m / 4.0;
        let k = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - k as f64;
        sorted[k - 1] + (sorted[k] - sorted[k - 1]) * frac
    };
    (cut(1), cut(3))
}

/// Nanosecond-resolution latency histogram with a fixed footprint:
/// one bucket per nanosecond up to `BUCKETS` ns plus an overflow
/// bucket. Recording never allocates, so the benchmark's own memory
/// does not grow with the run length.
pub struct Histogram {
    counts: Box<[u64]>,
    overflow: u64,
    total: u64,
}

const BUCKETS: usize = 1 << 16;

impl Histogram {
    /// An empty histogram (allocated once, up front).
    pub fn new() -> Histogram {
        Histogram {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            overflow: 0,
            total: 0,
        }
    }

    /// Forgets every sample, keeping the buckets' memory.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.overflow = 0;
        self.total = 0;
    }

    /// Records one sample in nanoseconds.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        match self.counts.get_mut(ns as usize) {
            Some(c) => *c += 1,
            None => self.overflow += 1,
        }
        self.total += 1;
    }

    /// The `q`-quantile in nanoseconds, interpolated linearly inside
    /// the 1 ns bucket that holds it (samples spread evenly over the
    /// bucket), so that the estimate keeps sub-nanosecond digits.
    /// Quantiles that fall into the overflow bucket read as its lower
    /// edge.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.total == 0 {
            return f64::NAN;
        }
        let rank = q.clamp(0.0, 1.0) * self.total as f64;
        let mut seen = 0u64;
        for (ns, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (seen + c) as f64 >= rank {
                let inside = (rank - seen as f64) / c as f64;
                return ns as f64 + inside.clamp(0.0, 1.0);
            }
            seen += c;
        }
        BUCKETS as f64
    }
}

/// Peak resident set size of this process in MiB (`ru_maxrss`).
pub fn peak_rss_mb() -> f64 {
    // `struct rusage` on 64-bit Linux: two `struct timeval` (four
    // longs) followed by fourteen longs, `ru_maxrss` (KiB) first.
    #[repr(C)]
    struct Rusage {
        fields: [i64; 18],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage { fields: [0; 18] };
    // SAFETY: `usage` is a writable, properly aligned buffer of the
    // size of the C `struct rusage` on 64-bit Linux, and getrusage
    // writes nothing beyond that struct.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    if rc != 0 {
        return f64::NAN;
    }
    usage.fields[4] as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // Small sets, where Python extrapolates past the extremes.
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), (1.0, 5.0));
        assert_eq!(quartiles(&[2.0, 4.0, 8.0, 16.0, 32.0]), (3.0, 24.0));
    }

    #[test]
    fn histogram_quantiles_interpolate_inside_buckets() {
        let mut h = Histogram::new();
        for _ in 0..100 {
            h.record(70);
        }
        let p50 = h.quantile_ns(0.5);
        assert!((70.0..71.0).contains(&p50), "{p50}");
        h.record(1 << 20);
        assert_eq!(h.quantile_ns(1.0), BUCKETS as f64);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
