//! Order statistics the benchmark reports: medians, quartiles as Python's
//! `statistics.quantiles(values, n=4)` gives them, nearest-rank
//! percentiles, and the highest percentile a sample supports.

/// `values` sorted ascending.
///
/// # Panics
///
/// Panics on a NaN: every sample here is a measured duration or count.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Median (mean of the middle pair for an even count); 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile by the exclusive method
/// (`statistics.quantiles(values, n=4)`): position `i * (n + 1) / 4`,
/// linearly interpolated between the neighbours (extrapolated past the
/// ends of a tiny sample, as Python does). `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some([cut(1), cut(2), cut(3)])
}

/// Distance between the quartiles as a share of the median — the spread
/// the acceptance rule compares with a metric's bound.
pub fn iqr_share(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// Nearest-rank percentile of an ascending sample: the smallest value with
/// at least `p` percent of the sample at or below it. 0 for no samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank position of percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1));
    n - rank.min(n)
}

/// The percentiles a report may quote, lowest first.
pub const PERCENTILE_LADDER: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// The highest percentile of [`PERCENTILE_LADDER`] that still has at least
/// `beyond` samples above it in a sample of `n`; `None` when even the
/// median does not.
pub fn highest_supported_percentile(n: usize, beyond: usize) -> Option<f64> {
    PERCENTILE_LADDER
        .iter()
        .copied()
        .rfind(|&p| samples_beyond(n, p) >= beyond)
}

/// Median, extremes and count of one metric's samples, for the printed
/// report.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub count: usize,
    /// The highest percentile with at least ten samples beyond it, and its
    /// value; `None` when the sample supports none.
    pub tail: Option<(f64, f64)>,
}

pub fn summary(values: &[f64]) -> Summary {
    let v = sorted(values);
    Summary {
        median: median(&v),
        min: v.first().copied().unwrap_or(0.0),
        max: v.last().copied().unwrap_or(0.0),
        count: v.len(),
        tail: highest_supported_percentile(v.len(), 10).map(|p| (p, percentile(&v, p))),
    }
}
