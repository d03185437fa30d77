//! Order statistics over timing samples, and failure counting.

/// Median, quartiles, sample count and tail of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Middle value (mean of the two middle values for an even count).
    pub median: f64,
    /// First quartile (see [`quartiles`]).
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of samples.
    pub n: usize,
    /// `(percentile, value)` of the highest percentile with at least ten
    /// samples beyond it; `None` below 11 samples.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarise `xs` (in any order). `None` for an empty slice.
    pub fn of(xs: &[f64]) -> Option<Summary> {
        if xs.is_empty() {
            return None;
        }
        let s = sorted(xs);
        let (q1, q3) = quartiles(&s);
        Some(Summary {
            median: median(&s),
            q1,
            q3,
            n: s.len(),
            tail: tail_percentile(&s),
        })
    }

    /// `median (q1–q3, n=…, pXX=…)` with the given unit.
    pub fn describe(&self, unit: &str) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!(", p{p}={v:.4}"),
            None => String::new(),
        };
        format!(
            "{:.4} {unit} (q1 {:.4}, q3 {:.4}, n={}{tail})",
            self.median, self.q1, self.q3, self.n
        )
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median of `xs` in any order; 0 when there are no samples.
pub fn median_of(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        median(&sorted(xs))
    }
}

/// Median of sorted, non-empty `s`.
pub fn median(s: &[f64]) -> f64 {
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartile of sorted, non-empty `s`, by the same rule as
/// Python's `statistics.quantiles(s, n=4)` (the default "exclusive"
/// method), so the benchmark and its acceptance check agree. A single
/// sample is its own quartiles.
pub fn quartiles(s: &[f64]) -> (f64, f64) {
    let ld = s.len();
    if ld == 1 {
        return (s[0], s[0]);
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Percentiles considered for the reported tail, in tenths of a
/// percent (integers, so ranks are exact), highest first.
const TAIL_PERMILLE: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// Nearest rank (1-based) of the `permille`/1000 quantile among `n`.
fn rank(n: usize, permille: usize) -> usize {
    (permille * n).div_ceil(1000).clamp(1, n)
}

/// The highest of [`TAIL_PERMILLE`] that leaves at least ten samples
/// beyond it, as `(percentile, nearest-rank value)`, for sorted `s`.
pub fn tail_percentile(s: &[f64]) -> Option<(f64, f64)> {
    let n = s.len();
    TAIL_PERMILLE.iter().find_map(|&pm| {
        let r = rank(n, pm);
        (n >= 1 && n - r >= 10).then(|| (pm as f64 / 10.0, s[r - 1]))
    })
}

/// Nearest-rank percentile of sorted, non-empty `s`, with the percentile
/// given in tenths of a percent (`990` is p99).
pub fn percentile(s: &[f64], permille: usize) -> f64 {
    s[rank(s.len(), permille) - 1]
}

/// Checked operations: how many ran, and how many failed their check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error, degraded, retried, or left an
    /// arena that differs from the sequential reference.
    pub failed: u64,
}

impl Tally {
    /// Count one operation; returns `ok` so callers can chain on it.
    pub fn record(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        ok
    }

    /// `failed / attempted` (0 when nothing was attempted).
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[1.0, 2.0, 9.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 4.0, 9.0]), 3.0);
        assert_eq!(Summary::of(&[9.0, 1.0, 2.0]).unwrap().median, 2.0);
        assert_eq!(median_of(&[4.0, 1.0, 9.0, 2.0]), 3.0);
        assert_eq!(median_of(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&s), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        // statistics.quantiles([3, 5, 7, 100], n=4) == [3.5, 6.0, 76.75]
        assert_eq!(quartiles(&[3.0, 5.0, 7.0, 100.0]), (3.5, 76.75));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail_percentile(&ten), None);
        // 20 samples: p50 has 10 beyond, p75 only 5.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&twenty), Some((50.0, 10.0)));
        // 100 samples: p90 leaves exactly 10, p95 only 5.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&hundred), Some((90.0, 90.0)));
        // 1000 samples: p99 leaves exactly 10.
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&thousand), Some((99.0, 990.0)));
    }

    #[test]
    fn nearest_rank_percentile() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 500), 50.0);
        assert_eq!(percentile(&s, 990), 99.0);
        assert_eq!(percentile(&[7.0], 990), 7.0);
    }

    #[test]
    fn fail_frac_counts_failures_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.fail_frac(), 0.0);
        assert!(t.record(true));
        assert!(!t.record(false));
        t.record(true);
        t.record(true);
        assert_eq!((t.attempted, t.failed), (4, 1));
        assert_eq!(t.fail_frac(), 0.25);
    }
}
