//! Order statistics used by every report: medians, quartiles and the
//! tail percentile rule.

/// Tail percentiles tried from the highest down; the first one with at
/// least [`MIN_BEYOND`] samples beyond it is reported.
const TAIL_PERCENTILES: [f64; 7] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0];

/// Samples a tail percentile needs beyond it before it is reported.
pub const MIN_BEYOND: f64 = 10.0;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an ascending slice (`p` in `0..=100`).
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64 / 100.0 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the middle pair for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile with the same interpolation
/// as Python's `statistics.quantiles(xs, n=4)` (the "exclusive" method),
/// so spreads printed here match the ones computed from the JSON lines.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let v = sorted(xs);
    if v.len() < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let m = v.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The highest percentile with at least [`MIN_BEYOND`] samples beyond it,
/// and its value. With fewer than `2 * MIN_BEYOND` samples no percentile
/// qualifies and the maximum (percentile 100) is reported instead.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let n = v.len() as f64;
    for p in TAIL_PERCENTILES {
        if n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9 {
            return (p, percentile_sorted(&v, p));
        }
    }
    (100.0, v.last().copied().unwrap_or(0.0))
}

/// Mean of the values left after dropping the lowest and the highest
/// `share` of them (a 10%-trimmed mean for `share = 0.1`). With fewer than
/// `1 / share` values nothing is dropped.
pub fn trimmed_mean(xs: &[f64], share: f64) -> f64 {
    let v = sorted(xs);
    let cut = (v.len() as f64 * share) as usize;
    let kept = &v[cut..v.len() - cut];
    if kept.is_empty() {
        0.0
    } else {
        kept.iter().sum::<f64>() / kept.len() as f64
    }
}

/// `(value - base) / base`, or 0 when the base is 0.
pub fn rel_diff(value: f64, base: f64) -> f64 {
    if base.abs() < f64::MIN_POSITIVE {
        0.0
    } else {
        (value - base) / base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let xs = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<f64>>();
        // 1000 samples: p99 has exactly 10 beyond it.
        assert_eq!(tail(&xs(1000)), (99.0, 990.0));
        // 999 samples: p99 has 9.99 beyond, so p98 is the highest.
        assert_eq!(tail(&xs(999)).0, 98.0);
        // 10000 samples: p99.9 qualifies.
        assert_eq!(tail(&xs(10_000)), (99.9, 9990.0));
        // 40 samples: only p75 has 10 beyond.
        assert_eq!(tail(&xs(40)), (75.0, 30.0));
        // Too few for any percentile: the maximum.
        assert_eq!(tail(&xs(19)), (100.0, 19.0));
        assert_eq!(tail(&[]), (100.0, 0.0));
    }

    #[test]
    fn trimmed_mean_drops_each_tail() {
        // 10 values: the lowest and the highest are dropped.
        let xs = [1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 100.0];
        assert_eq!(trimmed_mean(&xs, 0.1), 2.0);
        // Too few to trim: the plain mean.
        assert_eq!(trimmed_mean(&[1.0, 2.0, 6.0], 0.1), 3.0);
        assert_eq!(trimmed_mean(&[], 0.1), 0.0);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50.0);
        assert_eq!(percentile_sorted(&v, 99.0), 99.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&v, 100.0), 100.0);
    }
}
