//! Order statistics over exact samples and over the library's
//! log-bucketed latency histograms.

use hcd::par::hist::{bucket_lo, bucket_width};
use hcd::par::HistogramSnapshot;

/// The `q`-quantile (`q` in `[0, 1]`) of `values`, interpolated linearly
/// between the two nearest ranks. `NaN` for an empty slice.
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

/// The `q`-quantile of a histogram in nanoseconds, interpolated inside
/// the bucket that holds the sample of that rank. The library's own
/// [`HistogramSnapshot::quantile`] returns the bucket midpoint, which
/// reads the same on every run whenever the quantile stays in one
/// bucket; interpolating by the bucket's count keeps the value a
/// measurement. `NaN` for an empty histogram.
pub fn hist_quantile_ns(h: &HistogramSnapshot, q: f64) -> f64 {
    if h.count == 0 {
        return f64::NAN;
    }
    let rank = (q.clamp(0.0, 1.0) * h.count as f64).max(1.0);
    let mut seen = 0u64;
    for &(i, c) in &h.buckets {
        if (seen + c) as f64 >= rank {
            let within = (rank - seen as f64) / c as f64;
            let v = bucket_lo(i) as f64 + within * bucket_width(i) as f64;
            return v.clamp(h.min_ns as f64, h.max_ns as f64);
        }
        seen += c;
    }
    h.max_ns as f64
}

/// The exact mean of a histogram in nanoseconds (0 when empty).
pub fn hist_mean_ns(h: Option<&HistogramSnapshot>) -> f64 {
    h.map_or(0.0, |h| h.sum_ns as f64 / h.count.max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn histogram_quantile_stays_inside_observed_range() {
        let exec = hcd::par::Executor::sequential().with_histograms();
        for ns in [1_000u64, 1_100, 1_200, 50_000] {
            exec.observe_ns("perfbench.test", ns);
        }
        let h = exec.take_metrics().histograms.remove(0);
        let p50 = hist_quantile_ns(&h, 0.5);
        assert!((1_000.0..=1_300.0).contains(&p50), "{p50}");
        assert_eq!(hist_quantile_ns(&h, 1.0), 50_000.0);
        assert_eq!(hist_mean_ns(Some(&h)), 13_325.0);
    }
}
