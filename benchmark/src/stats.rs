//! Sample statistics and the metric record every workload reports in.

/// One reported number: its name and unit as `BENCHMARK.json` declares
/// them, and how many samples stand behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
    /// For a percentile: how many samples rank beyond it. Fewer than
    /// [`MIN_BEYOND`] means the tail is one outlier's value, not a
    /// property of the program, and the printed line says so.
    pub beyond: Option<usize>,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Self {
        Metric {
            name,
            unit,
            value,
            samples,
            beyond: None,
        }
    }

    /// The nearest-rank `p`-th percentile of `samples` (any order);
    /// `None` when there are no samples.
    pub fn percentile(
        name: &'static str,
        unit: &'static str,
        samples: &[f64],
        p: f64,
    ) -> Option<Metric> {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Metric {
            name,
            unit,
            value: percentile(&sorted, p)?,
            samples: sorted.len(),
            beyond: Some(beyond(sorted.len(), p)),
        })
    }
}

/// How many samples must rank beyond a percentile for it to be trusted.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice; `None` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[nearest_rank(sorted.len(), p) - 1])
}

/// How many of `n` samples rank strictly above the `p`-th percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - nearest_rank(n, p)
    }
}

/// Median of an unsorted sample; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// FNV-1a over a sequence of byte strings, each closed by a newline: the
/// digest printed for every generated request stream, so two runs can be
/// shown to have sent the same bytes.
#[derive(Debug, Clone, Copy)]
pub struct StreamHash(u64);

impl StreamHash {
    pub fn new() -> Self {
        StreamHash(0xcbf2_9ce4_8422_2325)
    }

    pub fn line(&mut self, line: &str) {
        for &b in line.as_bytes().iter().chain(b"\n") {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(50.0));
        assert_eq!(percentile(&s, 99.0), Some(99.0));
        assert_eq!(percentile(&s, 100.0), Some(100.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 50.0), Some(2.0));
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), Some(2.0));
    }

    #[test]
    fn empty_sample_has_no_percentile() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(Metric::percentile("m", "ms", &[], 99.0), None);
        assert_eq!(median(&[]), None);
        assert_eq!(beyond(0, 99.0), 0);
    }

    #[test]
    fn a_tail_needs_ten_samples_beyond_it() {
        // p99 of 999 samples is rank 990: nine beyond, not enough
        assert_eq!(beyond(999, 99.0), 9);
        // 1000 samples: rank 990, ten beyond
        assert_eq!(beyond(1000, 99.0), 10);
        let s: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let m = Metric::percentile("m", "ms", &s, 99.0).unwrap();
        assert_eq!((m.value, m.samples, m.beyond), (990.0, 1000, Some(10)));
        assert!(m.beyond.unwrap() >= MIN_BEYOND);
        // p95 is supported from 200 samples on
        assert_eq!(beyond(199, 95.0), 9);
        assert_eq!(beyond(200, 95.0), 10);
    }

    #[test]
    fn stream_hash_depends_on_bytes_and_order() {
        let digest = |lines: &[&str]| {
            let mut h = StreamHash::new();
            for l in lines {
                h.line(l);
            }
            h.finish()
        };
        assert_eq!(digest(&["a", "b"]), digest(&["a", "b"]));
        assert_ne!(digest(&["a", "b"]), digest(&["b", "a"]));
        assert_ne!(digest(&["ab"]), digest(&["a", "b"]));
    }
}
