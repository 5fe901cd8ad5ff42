//! Order statistics used by every workload.

/// Median of `xs` (mean of the two middle values for an even count);
/// `NaN` when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Geometric mean of positive values.
pub fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// A latency summary at one percentile, with the sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub samples: usize,
}

/// Percentiles a tail may be reported at, highest first.
const LADDER: [f64; 6] = [99.99, 99.9, 99.0, 95.0, 90.0, 50.0];

/// Nearest-rank index of percentile `p` in `n` sorted samples.
fn rank(p: f64, n: usize) -> usize {
    (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Value at percentile `p` (nearest rank); `None` when empty.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank(p, v.len())])
}

/// The highest percentile of [`LADDER`] that has at least ten samples
/// strictly beyond its rank, with its value. `None` when even the median has
/// fewer than ten samples above it (fewer than 20 samples).
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    LADDER.iter().find_map(|&p| {
        if n == 0 {
            return None;
        }
        let idx = rank(p, n);
        (n - 1 - idx >= 10).then_some(Tail {
            percentile: p,
            value: v[idx],
            samples: n,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_the_rank() {
        // 20 samples: p50 (rank 10) has 10 beyond it, p90 only 2.
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.percentile, t.value, t.samples), (50.0, 10.0, 20));
        // 19 samples: not even the median qualifies.
        assert_eq!(tail(&xs[..19]), None);
        // 1000 samples: p99 (rank 990) leaves 10 beyond; p99.9 leaves 1.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.percentile, t.value), (99.0, 990.0));
        // 999 samples: p99 leaves 9 beyond, so the tail falls to p95.
        let t = tail(&xs[..999]).unwrap();
        assert_eq!(t.percentile, 95.0);
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        xs.reverse();
        assert_eq!(tail(&xs).unwrap().value, 990.0);
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }
}
