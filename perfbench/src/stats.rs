//! The benchmark's own statistics: exact percentiles over client samples,
//! interpolated percentiles over the program's log-bucketed stage
//! histograms, and counter deltas across the measured window.

use sirep_common::{Stage, StageSnapshot};
use sirep_core::ClusterReport;
use std::collections::BTreeMap;

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile (`q` in (0, 1]) of an ascending slice: the
/// smallest sample with at least `q · n` samples at or below it. Returns
/// `None` when the slice is empty.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), q) - 1])
}

/// 1-based nearest rank of percentile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly above percentile `q`'s rank: a tail percentile is
/// reported as measured only when at least [`TAIL_SAMPLES`] lie beyond it.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// Median of unordered values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean, 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Width ratio of one histogram bucket (64 buckets per decade; see
/// `sirep_common::histogram`).
const BUCKET_GROWTH: f64 = 1.036_632_928_437_697_6;

/// Percentile `q` of one stage histogram, in milliseconds, with linear
/// interpolation inside the bucket that holds the target rank.
///
/// `StageSnapshot::quantile` returns only the lower edge of a bucket, which
/// would make every run that lands in the same bucket read identically. The
/// snapshot exposes no bucket counts, so the bucket's rank range is found by
/// bisection over `quantile` itself; the value is then placed within the
/// bucket in proportion to the target's position in that range. Returns 0
/// for an empty stage.
pub fn stage_quantile_ms(snap: &StageSnapshot, stage: Stage, q: f64) -> f64 {
    let n = snap.count(stage) as usize;
    if n == 0 {
        return 0.0;
    }
    // Lower bucket edge of the k-th smallest sample (1-based). Asking for
    // (k - 0.5) / n makes the histogram's `ceil(q · n)` land exactly on k.
    let at = |k: usize| snap.quantile(stage, (k as f64 - 0.5) / n as f64);
    let target = rank(n, q);
    let low = at(target);
    if low <= 0.0 {
        // Below the histogram's floor: no bucket to interpolate in.
        return 0.0;
    }
    // First rank in the bucket: the bucket edges are non-decreasing in rank.
    let (mut lo, mut hi) = (1, target);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if at(mid) < low {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    let first = lo;
    let (mut lo, mut hi) = (target, n);
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if at(mid) > low {
            hi = mid - 1;
        } else {
            lo = mid;
        }
    }
    let last = lo;
    let within = (target - first) as f64 + 0.5;
    let width = (last - first + 1) as f64;
    low + low * (BUCKET_GROWTH - 1.0) * within / width
}

/// The program's cumulative counters at one instant, by name: protocol
/// counters from `Metrics` plus transport counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters(BTreeMap<&'static str, u64>);

impl Counters {
    pub fn of(report: &ClusterReport) -> Counters {
        let mut map = BTreeMap::new();
        for (name, v) in report.metrics.counters() {
            map.insert(name, v);
        }
        for (name, v) in report.transport.counters() {
            map.insert(name, v);
        }
        Counters(map)
    }

    /// `later - self`, counter by counter: what happened between the two
    /// readings. A counter missing from either side reads as 0.
    pub fn delta(&self, later: &Counters) -> Counters {
        let mut map = BTreeMap::new();
        for (&name, &v) in &later.0 {
            map.insert(name, v.saturating_sub(self.get(name)));
        }
        Counters(map)
    }

    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }

    /// `get(name) / denominator`, 0 when the denominator is 0.
    pub fn per(&self, name: &str, denominator: u64) -> f64 {
        ratio(self.get(name) as f64, denominator as f64)
    }
}

/// `num / den`, 0 when `den` is 0 (a ratio with no base reads as 0, never
/// NaN, so the result always serializes).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sirep_common::{Metrics, StageStats};

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        // Rank rounds up: 0.5 · 5 = 2.5 → 3rd sample.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.5), Some(3.0));
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples is the 990th: ten lie beyond it.
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert!(samples_beyond(999, 0.99) < TAIL_SAMPLES);
        assert_eq!(samples_beyond(100, 0.5), 50);
        assert_eq!(samples_beyond(0, 0.99), 0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn stage_quantile_interpolates_inside_the_bucket() {
        let stats = StageStats::new();
        // 1000 samples spread evenly over 1.0 .. 2.0 ms.
        for i in 0..1000 {
            stats.record_ms(Stage::Commit, 1.0 + f64::from(i) / 1000.0);
        }
        let snap = stats.snapshot();
        let p50 = stage_quantile_ms(&snap, Stage::Commit, 0.5);
        let edge = snap.quantile(Stage::Commit, 0.5);
        assert!(p50 >= edge && p50 < edge * BUCKET_GROWTH, "{p50} outside bucket at {edge}");
        assert!((p50 - 1.5).abs() < 0.01, "p50 {p50} far from 1.5");
        // The error is bounded by one bucket width (3.7 %).
        let p99 = stage_quantile_ms(&snap, Stage::Commit, 0.99);
        assert!((p99 / 1.989 - 1.0).abs() < BUCKET_GROWTH - 1.0, "p99 {p99} far from 1.989");
        // One bucket, one sample: the bucket's midpoint.
        let one = StageStats::new();
        one.record_ms(Stage::Apply, 0.5);
        let snap = one.snapshot();
        let edge = snap.quantile(Stage::Apply, 0.5);
        let mid = stage_quantile_ms(&snap, Stage::Apply, 0.5);
        assert!((mid - edge * (1.0 + BUCKET_GROWTH) / 2.0).abs() < 1e-12);
        assert_eq!(stage_quantile_ms(&snap, Stage::Execute, 0.5), 0.0);
    }

    #[test]
    fn counter_deltas_leave_warmup_out_of_per_commit_ratios() {
        let m = Metrics::new();
        // Warmup: 100 commits, 40 certification aborts.
        for _ in 0..100 {
            Metrics::inc(&m.commits_update);
        }
        for _ in 0..40 {
            Metrics::inc(&m.aborts_validation);
        }
        let before = counters_of(&m);
        // Measured window: 50 commits, 5 aborts.
        for _ in 0..50 {
            Metrics::inc(&m.commits_update);
        }
        for _ in 0..5 {
            Metrics::inc(&m.aborts_validation);
        }
        let window = before.delta(&counters_of(&m));
        assert_eq!(window.get("commits_update"), 50);
        assert_eq!(window.get("aborts_validation"), 5);
        assert_eq!(window.per("aborts_validation", window.get("commits_update")), 0.1);
        // The cumulative reading would have said 45 / 150.
        assert_eq!(counters_of(&m).per("aborts_validation", 150), 0.3);
        assert_eq!(window.per("aborts_validation", 0), 0.0);
    }

    fn counters_of(m: &Metrics) -> Counters {
        let report = ClusterReport::from_statuses(Vec::new(), Vec::new());
        report.metrics.merge(m);
        Counters::of(&report)
    }
}
